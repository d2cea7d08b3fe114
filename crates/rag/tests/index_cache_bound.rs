//! The shared TF-IDF index cache must stay bounded in a long-lived
//! process: every distilled generation is a new merged database with a new
//! fingerprint, and so a new index. Once more generations have been
//! indexed than the cache holds, the least recently used ones are evicted,
//! while the shared editions a daemon keeps querying stay resident and
//! keep returning the same hits.

use std::sync::Arc;

use rtlfixer_rag::{
    shared_tfidf_index, DistilledEntry, DistilledStore, GuidanceDatabase, HybridRetriever,
    RetrievalQuery, Retriever, TFIDF_CACHE_CAPACITY,
};
use rtlfixer_verilog::diag::ErrorCategory;

const QUARTUS_LOG: &str = "Error (10161): Verilog HDL error at main.sv(2): object \"clk\" \
                           is not declared. Verify the object name is correct.";
const IVERILOG_LOG: &str = "main.v:2: error: Unable to bind wire/reg/memory 'clk' in 'top_module'";

/// A digit-free word unique to `n`, so every generation's log has its own
/// error shape (the distill fingerprint collapses digits and quoted names).
fn shape_word(mut n: usize) -> String {
    let mut word = String::from("shape");
    loop {
        word.push(char::from(b'a' + (n % 26) as u8));
        n /= 26;
        if n == 0 {
            return word;
        }
    }
}

/// Entry id, score bits and evidence of every hit.
fn hits(db: &GuidanceDatabase, query: &RetrievalQuery) -> Vec<(String, u64, &'static str)> {
    HybridRetriever::new()
        .retrieve(db, query)
        .into_iter()
        .map(|hit| (hit.entry.id.clone(), hit.score.to_bits(), hit.evidence.counter()))
        .collect()
}

#[test]
fn index_cache_evicts_old_generations_and_keeps_hot_editions() {
    let quartus = GuidanceDatabase::quartus_shared();
    let iverilog = GuidanceDatabase::iverilog_shared();
    let quartus_query = RetrievalQuery::from_log(QUARTUS_LOG);
    let iverilog_query = RetrievalQuery::from_log(IVERILOG_LOG)
        .with_identified(vec![ErrorCategory::UndeclaredIdentifier]);
    let quartus_hits = hits(&quartus, &quartus_query);
    let iverilog_hits = hits(&iverilog, &iverilog_query);
    assert!(!quartus_hits.is_empty() && !iverilog_hits.is_empty());
    let quartus_index = shared_tfidf_index(&quartus);
    let iverilog_index = shared_tfidf_index(&iverilog);

    let store = DistilledStore::new();
    let generations = 2 * TFIDF_CACHE_CAPACITY;
    let mut merged_databases = Vec::new();
    let mut generation_indexes = Vec::new();
    for generation in 0..generations {
        let log = format!("syntax error near {} in module body", shape_word(generation));
        let inserted = store.merge(&[DistilledEntry::from_episode(
            &log,
            ErrorCategory::SyntaxError,
            1,
            1,
        )]);
        assert_eq!(inserted, 1, "generation {generation} must add a new shape");
        let merged = store.merged_database(&quartus);
        let index = shared_tfidf_index(&merged);
        assert_eq!(index.len(), quartus.entries.len() + generation + 1);
        merged_databases.push(merged);
        generation_indexes.push(index);
        // A daemon keeps serving the shared editions between generations.
        assert_eq!(hits(&quartus, &quartus_query), quartus_hits);
        assert_eq!(hits(&iverilog, &iverilog_query), iverilog_hits);
    }

    // An index the cache still holds has a second owner; an evicted one is
    // held only by this test. With both editions touched after every
    // generation, exactly the newest `capacity - 2` generations survive.
    let resident: Vec<bool> =
        generation_indexes.iter().map(|index| Arc::strong_count(index) > 1).collect();
    let survivors = TFIDF_CACHE_CAPACITY - 2;
    assert_eq!(resident.iter().filter(|&&r| r).count(), survivors, "{resident:?}");
    assert!(resident[generations - survivors..].iter().all(|&r| r), "{resident:?}");

    // The hot editions were never evicted: the same Arc comes back.
    assert!(Arc::ptr_eq(&quartus_index, &shared_tfidf_index(&quartus)));
    assert!(Arc::ptr_eq(&iverilog_index, &shared_tfidf_index(&iverilog)));

    // Eviction costs only a rebuild: the oldest generation gets a fresh
    // index that scores every document to the same bits.
    let rebuilt = shared_tfidf_index(&merged_databases[0]);
    assert!(!Arc::ptr_eq(&rebuilt, &generation_indexes[0]));
    let bits = |scores: Vec<f64>| scores.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    assert_eq!(
        bits(rebuilt.scores(&format!("syntax error near {}", shape_word(0)))),
        bits(generation_indexes[0].scores(&format!("syntax error near {}", shape_word(0))))
    );
}
