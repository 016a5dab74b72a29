"""Model state and the end-to-end differentiable forward pass."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import adversarial, autodiff as ad, encoder as enc, objectives as obj
from .adversarial import DiscriminatorParams, GeneratorParams
from .autodiff import Tensor
from .data import ModalityFeatureTable, NormalizedAdjacency
from .encoder import AttentionParams, EncoderConfig, IdEmbeddings, SemanticNeighborhood

__all__ = [
    "ModelState",
    "ForwardResult",
    "init_model",
    "forward_embeddings",
    "refresh_block_rows",
    "refresh_neighborhoods",
]


@dataclass
class ModelState:
    """Every trainable tensor, split between the two optimizers."""

    gen: GeneratorParams
    ids: IdEmbeddings
    attn: AttentionParams
    disc: DiscriminatorParams

    def generator_parameters(self) -> list[Tensor]:
        """Everything the generator-side step trains (id tables included)."""
        return self.gen.parameters() + self.ids.parameters() + self.attn.parameters()

    def discriminator_parameters(self) -> list[Tensor]:
        return self.disc.parameters()

    def named_parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = {}
        for p in self.generator_parameters() + self.discriminator_parameters():
            if p.name in out:
                raise ValueError(f"duplicate parameter name {p.name}")
            out[p.name] = p
        return out


def init_model(
    num_users: int,
    num_items: int,
    modality_dims: list[int],
    embed_dim: int,
    heads: int,
    disc_hidden: int,
    rng: np.random.Generator,
    gen_dropout: float = 0.1,
    disc_dropout: float = 0.1,
) -> ModelState:
    return ModelState(
        gen=GeneratorParams.create(modality_dims, embed_dim, rng, gen_dropout),
        ids=IdEmbeddings.create(num_users, num_items, embed_dim, rng),
        attn=AttentionParams.create(embed_dim, heads, rng),
        disc=DiscriminatorParams.create(num_items, disc_hidden, rng, dropout_rate=disc_dropout),
    )


@dataclass
class ForwardResult:
    h_users: Tensor
    h_items: Tensor
    prior_users: list[Tensor]  # modality collaborative embeddings, user side
    prior_items: list[Tensor]
    views_users: list[Tensor]  # semantic-neighbor modality views, user side
    views_items: list[Tensor]


def forward_embeddings(
    state: ModelState,
    adj: NormalizedAdjacency,
    features: list[ModalityFeatureTable],
    neighborhoods: list[SemanticNeighborhood],
    cfg: EncoderConfig,
    omega: float,
    train: bool = False,
    rng: np.random.Generator | None = None,
) -> ForwardResult:
    """Full chain from raw features and id tables to final embeddings.

    The semantic neighborhoods are taken as fixed index structure; all
    other stages are differentiable tape operations.
    """
    prior_u, prior_i = [], []
    for m, table in enumerate(features):
        f_u, f_i = adversarial.modality_collab_embeddings(
            adj, table.as_float64(), state.gen, m, train=train, rng=rng
        )
        prior_u.append(f_u)
        prior_i.append(f_i)
    views_u, views_i = [], []
    for neigh in neighborhoods:
        e_u, e_i = enc.modality_view(neigh, state.ids)
        views_u.append(e_u)
        views_i.append(e_i)
    summary_u = enc.fuse_modalities(enc.cross_modal_attention(views_u, state.attn))
    summary_i = enc.fuse_modalities(enc.cross_modal_attention(views_i, state.attn))
    prop_u, prop_i = enc.propagate_high_order(
        adj, state.ids.users, state.ids.items, summary_u, summary_i, cfg.layers, cfg.eta
    )
    h_u = obj.fuse_final(prop_u, prior_u, omega)
    h_i = obj.fuse_final(prop_i, prior_i, omega)
    return ForwardResult(
        h_users=h_u,
        h_items=h_i,
        prior_users=prior_u,
        prior_items=prior_i,
        views_users=views_u,
        views_items=views_i,
    )


# bytes of relation rows one refresh block holds when ``block_rows`` is 0
REFRESH_BLOCK_BYTES = 32 << 20


def refresh_block_rows(block_rows: int, num_items: int) -> int:
    """Users per refresh block: ``block_rows`` if positive, else as many
    float64 relation rows as fit in ``REFRESH_BLOCK_BYTES``."""
    if block_rows > 0:
        return block_rows
    return max(1, REFRESH_BLOCK_BYTES // (8 * num_items))


def refresh_neighborhoods(
    state: ModelState,
    adj: NormalizedAdjacency,
    features: list[ModalityFeatureTable],
    top_k: int,
    block_rows: int = 0,
) -> list[SemanticNeighborhood]:
    """Recompute per-modality relations (eval mode, no tape) and read off
    fresh top-k semantic neighbors.

    Relations are produced and consumed one block of user rows at a time,
    so memory holds one (block, I) slab instead of the full (U, I) matrix.
    """
    neighborhoods = []
    for m, table in enumerate(features):
        f_u, f_i = adversarial.modality_collab_embeddings(
            adj, table.as_float64(), state.gen, m, train=False
        )
        num_users = f_u.shape[0]
        step = refresh_block_rows(block_rows, f_i.shape[0])
        blocks = (
            adversarial.relation_rows(
                ad.gather_rows(f_u, np.arange(start, min(start + step, num_users))), f_i
            ).data
            for start in range(0, num_users, step)
        )
        neighborhoods.append(enc.neighbors_from_row_blocks(blocks, top_k))
    return neighborhoods
