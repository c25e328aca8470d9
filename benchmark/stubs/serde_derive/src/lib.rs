//! Offline stand-in for `serde_derive`.
//!
//! The simulator crates derive `Serialize`/`Deserialize` but never name
//! the traits in a bound or call a serializer (they use the hand-rolled
//! `emc_types::codec`), so the derives only have to accept the
//! `#[serde(..)]` attributes and may expand to nothing.

use proc_macro::TokenStream;

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(_input: TokenStream) -> TokenStream {
    TokenStream::new()
}
