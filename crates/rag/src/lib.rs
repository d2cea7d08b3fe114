//! # rtlfixer-rag
//!
//! The Retrieval-Augmented Generation subsystem of the RTLFixer
//! reproduction: a curated database of error-category → human-expert
//! guidance ([`database::GuidanceDatabase`]) and the retrievers that match
//! compiler logs against it ([`retriever`]).
//!
//! Database shapes follow §3.3 of the paper exactly: 7 categories / 30
//! entries for iverilog, 11 categories / 45 entries for Quartus. The
//! paper's retrieval strategy — exact match on compiler error tags with a
//! Jaccard fuzzy fallback for tag-less logs — is [`DefaultRetriever`];
//! the process default is the Retrieval 2.0 [`HybridRetriever`]
//! (exact-tag ≻ category ≻ lexical evidence blended into one ranked
//! list; `RTLFIXER_RAG_HYBRID=0` restores the paper's strategy).
//! Successful episodes feed the self-extending [`distill::DistilledStore`]
//! (`RTLFIXER_RAG_DISTILL` kill switch).
//!
//! ## Example
//!
//! ```
//! use rtlfixer_rag::{GuidanceDatabase, RetrievalQuery, Retriever, DefaultRetriever};
//!
//! let db = GuidanceDatabase::quartus();
//! let query = RetrievalQuery::from_log(
//!     "Error (10161): object \"clk\" is not declared.",
//! );
//! let hits = DefaultRetriever::new().retrieve(&db, &query);
//! assert!(hits[0].entry.guidance.contains("clk"));
//! ```

#![warn(missing_docs)]

pub mod database;
pub mod distill;
pub mod retriever;
pub mod text;

pub use database::{category_brief, DatabaseEdition, GuidanceDatabase, GuidanceEntry};
pub use distill::{
    distill_enabled, log_fingerprint, DistilledEntry, DistilledSnapshot, DistilledStore,
};
pub use retriever::{
    hybrid_enabled, shared_tfidf_index, tfidf_corpus, DefaultRetriever, Evidence,
    ExactTagRetriever, HybridRetriever, JaccardRetriever, Retrieved, RetrievalQuery, Retriever,
    TfIdfRetriever, TFIDF_CACHE_CAPACITY,
};
