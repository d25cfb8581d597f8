//! Tape-based reverse-mode automatic differentiation for the Zoomer models.
//!
//! The paper's production system trains on TensorFlow 1.12; this crate is the
//! from-scratch Rust equivalent sized to the needs of the Zoomer model family:
//! a [`Tape`] of matrix-valued nodes, 29 differentiable operators (including
//! the attention-specific ones: row-wise softmax, row scaling, row-wise cosine
//! similarity, focal cross-entropy on logits, and the row gather and segment
//! softmax / sum that encode a whole ROI level at once), optimizers ([`Adam`], [`Sgd`],
//! [`Adagrad`]) with decoupled weight decay, a named dense parameter registry
//! ([`ParamStore`]), and [`EmbeddingTable`]s with lazy (sparse) Adam updates —
//! mirroring XDL's sparse-parameter handling.
//!
//! Every operator's backward pass is validated against central finite
//! differences (see [`gradcheck`]).

pub mod embedding;
pub mod gradcheck;
pub mod optim;
pub mod params;
pub mod tape;

pub use embedding::EmbeddingTable;
pub use gradcheck::{check_gradients, GradCheckReport};
pub use optim::{Adagrad, Adam, Optimizer, Sgd};
pub use params::ParamStore;
pub use tape::{Gradients, Tape, Var};
