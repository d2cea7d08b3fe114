//! Retrieval scores keep their bits on the paper's own logs. Every distinct
//! initial compile log of the 212 Table 1 entries, under both tagged
//! (Quartus) and tagless (iverilog) personalities, is scored against both
//! shared guidance databases by the interned `TfIdfIndex` and by the
//! map-based reference oracle; every score must carry the same `f64` bits,
//! and the hit lists the production retrievers build from them must match
//! lists built from the oracle's scores entry for entry.

use std::collections::BTreeSet;

use rtlfixer_compilers::CompilerKind;
use rtlfixer_eval::experiments::table1::{load_entries, FixRateConfig};
use rtlfixer_rag::text::TfIdfIndex;
use rtlfixer_rag::{
    tfidf_corpus, GuidanceDatabase, HybridRetriever, RetrievalQuery, Retriever, TfIdfRetriever,
};
use rtlfixer_verilog::diag::ErrorCategory;

#[path = "../../rag/tests/support/tfidf_oracle.rs"]
mod tfidf_oracle;

use tfidf_oracle::{bits, OracleIndex};

/// Entry id, score bits and evidence counter of one hit.
type Hit = (String, u64, &'static str);

fn hit_list(db: &GuidanceDatabase, retriever: &dyn Retriever, query: &RetrievalQuery) -> Vec<Hit> {
    retriever
        .retrieve(db, query)
        .into_iter()
        .map(|hit| (hit.entry.id.clone(), hit.score.to_bits(), hit.evidence.counter()))
        .collect()
}

/// `TfIdfRetriever`'s hits rebuilt from the oracle: top-k cosine, then the
/// threshold, all lexical.
fn oracle_tfidf_hits(db: &GuidanceDatabase, oracle: &OracleIndex, log: &str) -> Vec<Hit> {
    let retriever = TfIdfRetriever::new();
    oracle
        .top_k(log, retriever.top_k)
        .into_iter()
        .filter(|&(_, score)| score >= retriever.threshold)
        .map(|(i, score)| (db.entries[i].id.clone(), score.to_bits(), "rag.hits.lexical"))
        .collect()
}

/// `HybridRetriever`'s ranked list rebuilt from the oracle's cosines: the
/// exact ≻ category ≻ lexical blend, exact hits in first-reported-tag order
/// and never truncated, then at most `top_k_fuzzy` non-exact hits by score.
fn oracle_hybrid_hits(
    db: &GuidanceDatabase,
    oracle: &OracleIndex,
    query: &RetrievalQuery,
) -> Vec<Hit> {
    let weights = HybridRetriever::new();
    let tags = query.tags();
    let cosine = oracle.scores(&query.log);
    let mut ranked = Vec::new();
    for (i, entry) in db.entries.iter().enumerate() {
        let tag_rank = entry.error_tag.and_then(|tag| tags.iter().position(|&t| t == tag));
        let exact = tag_rank.is_some();
        let category = query.identified.contains(&entry.category.0);
        let lexical = if cosine[i] >= weights.lexical_threshold { cosine[i] } else { 0.0 };
        let score = weights.exact_weight * f64::from(u8::from(exact))
            + weights.category_weight * f64::from(u8::from(category))
            + weights.lexical_weight * lexical;
        if score <= 0.0 {
            continue;
        }
        let evidence = if exact {
            "rag.hits.exact"
        } else if category {
            "rag.hits.category"
        } else {
            "rag.hits.lexical"
        };
        ranked.push((exact, tag_rank.unwrap_or(usize::MAX), score, i, evidence));
    }
    ranked.sort_by(|a, b| {
        b.0.cmp(&a.0)
            .then(a.1.cmp(&b.1))
            .then(b.2.partial_cmp(&a.2).unwrap_or(std::cmp::Ordering::Equal))
            .then(a.3.cmp(&b.3))
    });
    let exact_count = ranked.iter().filter(|r| r.0).count();
    ranked.truncate(exact_count + weights.top_k_fuzzy);
    ranked
        .into_iter()
        .map(|(_, _, score, i, evidence)| (db.entries[i].id.clone(), score.to_bits(), evidence))
        .collect()
}

/// The distinct `(log, identified categories)` pairs of the entries' first
/// compile under `compiler` — the first query each repair episode issues.
fn initial_queries(compiler: CompilerKind) -> Vec<RetrievalQuery> {
    let compiler = compiler.build();
    let entries = load_entries(&FixRateConfig::default());
    assert_eq!(entries.len(), 212);
    let distinct: BTreeSet<(String, Vec<ErrorCategory>)> = entries
        .iter()
        .map(|entry| compiler.compile(&entry.code, "main.sv"))
        .filter(|outcome| !outcome.success)
        .map(|outcome| (outcome.log, outcome.identified))
        .collect();
    distinct
        .into_iter()
        .map(|(log, identified)| RetrievalQuery::from_log(log).with_identified(identified))
        .collect()
}

#[test]
fn table1_logs_score_to_the_oracle_bits_and_rank_identically() {
    let databases = [GuidanceDatabase::quartus_shared(), GuidanceDatabase::iverilog_shared()];
    let oracles: Vec<OracleIndex> =
        databases.iter().map(|db| OracleIndex::new(&tfidf_corpus(db))).collect();
    let (hybrid, tfidf) = (HybridRetriever::new(), TfIdfRetriever::new());
    for compiler in [CompilerKind::Quartus, CompilerKind::Iverilog] {
        let queries = initial_queries(compiler);
        assert!(queries.len() > 50, "{compiler}: only {} distinct logs", queries.len());
        for (db, oracle) in databases.iter().zip(&oracles) {
            let index = TfIdfIndex::new(&tfidf_corpus(db));
            let mut lexical_hits = 0;
            for query in &queries {
                let log = query.log.as_str();
                let expected = oracle.scores(log);
                assert_eq!(bits(index.scores(log)), bits(expected), "{compiler}: {log}");
                let top: Vec<(usize, u64)> =
                    index.top_k(log, 5).into_iter().map(|(i, s)| (i, s.to_bits())).collect();
                let oracle_top: Vec<(usize, u64)> =
                    oracle.top_k(log, 5).into_iter().map(|(i, s)| (i, s.to_bits())).collect();
                assert_eq!(top, oracle_top, "{compiler}: {log}");

                let tfidf_hits = hit_list(db, &tfidf, query);
                assert_eq!(tfidf_hits, oracle_tfidf_hits(db, oracle, log), "{compiler}: {log}");
                assert_eq!(
                    hit_list(db, &hybrid, query),
                    oracle_hybrid_hits(db, oracle, query),
                    "{compiler}: {log}"
                );
                lexical_hits += tfidf_hits.len();
            }
            // The comparison must exercise real matches, not empty lists.
            assert!(lexical_hits > queries.len(), "{compiler}: {lexical_hits} lexical hits");
        }
    }
}
