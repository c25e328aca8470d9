//! Offline stand-in for `serde`: the two trait names and their derives.
//! See `serde_derive` for why nothing more is needed.

pub use serde_derive::{Deserialize, Serialize};

pub trait Serialize {}
pub trait Deserialize<'de>: Sized {}
