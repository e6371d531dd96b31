//! `ultra-nn` — minimal neural-network substrate for the UltraWiki
//! reproduction.
//!
//! The paper trains a BERT-base encoder (entity prediction + contrastive
//! heads) on 8×RTX 3090. This crate provides the exact training machinery
//! those heads need — dense matrices, linear / embedding-bag layers with
//! explicit backward passes, label-smoothed softmax cross-entropy (Eq. 3),
//! InfoNCE (Section 5.1.2), SGD with weight decay (plus a clipped sparse
//! step for embedding rows) — as deterministic, dependency-free CPU code.
//! Models here are shallow by design (see DESIGN.md §1: the substitution
//! preserves the training dynamics the paper's analysis depends on, not
//! transformer capacity).
//!
//! Layout convention: vectors are `Vec<f32>`, matrices are row-major
//! [`Matrix`] with shape `(rows, cols)`; a layer maps `in_dim → out_dim`
//! with weight shape `(out_dim, in_dim)`.

pub mod embedding;
pub mod linear;
pub mod loss;
pub mod matrix;
pub mod ops;
pub mod optim;
pub mod workspace;

pub use embedding::{EmbeddingBag, SparseGrad, SparseSink};
pub use linear::{Activation, Linear, LinearGrad, Mlp, MlpGrad, MlpT};
pub use loss::{infonce_weighted, infonce_weighted_into, label_smoothed_ce, InfoNceGrads};
pub use matrix::Matrix;
pub use ops::{
    cosine, dot, dot_unrolled, l2_normalize, l2_normalize_backward, l2_normalize_backward_into,
};
pub use optim::{GradApply, Sgd};
pub use workspace::{TrainWorkspace, TrainWorkspaces};
