//! Timing wrappers around the two trait objects the repair loop calls
//! through: the language model and the retriever.
//!
//! Both forward every trait method to the wrapped value, so wrapping never
//! changes an outcome. That matters for the model: the trait's default
//! `propose_repair_turn` would bypass `ResilientModel`'s retry semantics,
//! so [`TimedModel`] forwards `begin_episode`, `propose_repair` and
//! `propose_repair_turn` explicitly.

use rtlfixer_llm::{LanguageModel, RepairRequest, RepairResponse, RepairTurn};
use rtlfixer_rag::{
    hybrid_enabled, DefaultRetriever, GuidanceDatabase, HybridRetriever, RetrievalQuery, Retrieved,
    Retriever,
};

use crate::spans;

/// A language model whose repair turns are recorded as `llm.turn` spans.
pub struct TimedModel<L> {
    inner: L,
}

impl<L: LanguageModel> TimedModel<L> {
    /// Wraps `inner`.
    pub fn new(inner: L) -> Self {
        TimedModel { inner }
    }
}

impl<L: LanguageModel> LanguageModel for TimedModel<L> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn begin_episode(&mut self) {
        self.inner.begin_episode();
    }

    fn propose_repair(&mut self, request: &RepairRequest) -> RepairResponse {
        let _span = spans::span("llm.turn");
        self.inner.propose_repair(request)
    }

    fn propose_repair_turn(&mut self, request: &RepairRequest) -> RepairTurn {
        let _span = spans::span("llm.turn");
        self.inner.propose_repair_turn(request)
    }
}

/// A retriever whose calls are recorded as `rag.retrieve` spans, with hit
/// and database-size counters.
pub struct TimedRetriever {
    inner: Box<dyn Retriever>,
}

impl TimedRetriever {
    /// Wraps the retriever `RtlFixerBuilder` picks when none is given: the
    /// hybrid scorer, or the exact-tag composite when hybrid retrieval is
    /// switched off.
    pub fn builder_default() -> Self {
        let inner: Box<dyn Retriever> = if hybrid_enabled() {
            Box::new(HybridRetriever::new())
        } else {
            Box::new(DefaultRetriever::new())
        };
        TimedRetriever { inner }
    }
}

impl Retriever for TimedRetriever {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn retrieve<'a>(&self, db: &'a GuidanceDatabase, query: &RetrievalQuery) -> Vec<Retrieved<'a>> {
        let hits = {
            let _span = spans::span("rag.retrieve");
            self.inner.retrieve(db, query)
        };
        spans::add("rag.hits", hits.len() as f64);
        spans::record_max("rag.db_entries", db.entries.len() as f64);
        hits
    }
}
