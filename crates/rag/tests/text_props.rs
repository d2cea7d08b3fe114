//! Property tests for the rag text layer — the tokenizer, the Jaccard
//! metric and the error-tag scanner that every retriever sits on. These
//! pin algebraic invariants (bounds, symmetry, token-set identity) rather
//! than specific values, so a refactor of the scanning loops can't quietly
//! bend the metric the fuzzy retrievers rank by.

use proptest::prelude::*;

use rtlfixer_rag::text::{jaccard_distance, jaccard_similarity, tokenize, TfIdfIndex};
use rtlfixer_rag::{tfidf_corpus, GuidanceDatabase, RetrievalQuery};

#[path = "support/tfidf_oracle.rs"]
mod tfidf_oracle;

use tfidf_oracle::{bits, OracleIndex};

/// Asserts that every `scores`, `similarity` and `top_k` value of the
/// interned index carries the oracle's exact bits for `query`.
fn assert_matches_oracle(index: &TfIdfIndex, oracle: &OracleIndex, query: &str) {
    let expected = oracle.scores(query);
    prop_assert_eq!(bits(index.scores(query)), bits(expected.iter().copied()));
    for (idx, &score) in expected.iter().enumerate() {
        prop_assert_eq!(index.similarity(idx, query).to_bits(), score.to_bits());
    }
    let top = index.top_k(query, 5);
    let oracle_top = oracle.top_k(query, 5);
    prop_assert_eq!(
        top.iter().map(|&(i, s)| (i, s.to_bits())).collect::<Vec<_>>(),
        oracle_top.iter().map(|&(i, s)| (i, s.to_bits())).collect::<Vec<_>>()
    );
}

/// Log-ish text: words, digit runs, and the punctuation compiler logs
/// actually contain — parens around error tags included.
const LOG_TEXT: &str = "([a-z_]{1,8}|[0-9]{1,8}|\\(|\\)|: |'|\\n| ){0,24}";

proptest! {
    #[test]
    fn tokens_are_lowercase_word_characters(text in ".{0,200}") {
        for token in tokenize(&text) {
            prop_assert!(!token.is_empty());
            prop_assert!(
                token.chars().all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "bad token {token:?} from {text:?}"
            );
        }
    }

    #[test]
    fn tokenize_is_idempotent_over_its_own_rendering(text in LOG_TEXT) {
        // Re-tokenizing the space-joined token stream must reproduce it:
        // tokenization is a projection.
        let tokens = tokenize(&text);
        prop_assert_eq!(tokenize(&tokens.join(" ")), tokens);
    }

    #[test]
    fn jaccard_is_bounded_and_symmetric(a in LOG_TEXT, b in LOG_TEXT) {
        let ab = jaccard_similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&ab), "out of bounds: {ab}");
        prop_assert_eq!(ab, jaccard_similarity(&b, &a));
        let d = jaccard_distance(&a, &b);
        prop_assert!((d - (1.0 - ab)).abs() < 1e-12);
    }

    #[test]
    fn jaccard_self_similarity_is_one(a in LOG_TEXT) {
        prop_assert_eq!(jaccard_similarity(&a, &a), 1.0);
    }

    #[test]
    fn jaccard_depends_only_on_the_token_set(a in LOG_TEXT, b in LOG_TEXT) {
        // Repetition and order are invisible: doubling one side and
        // reversing its token order must not move the similarity.
        let doubled = format!("{a} {a}");
        let reversed =
            tokenize(&a).into_iter().rev().collect::<Vec<_>>().join(" ");
        prop_assert_eq!(jaccard_similarity(&a, &b), jaccard_similarity(&doubled, &b));
        prop_assert_eq!(jaccard_similarity(&a, &b), jaccard_similarity(&reversed, &b));
    }

    #[test]
    fn tag_scanner_never_panics_and_reports_unique_in_log_tags(text in LOG_TEXT) {
        let query = RetrievalQuery::from_log(text.clone());
        let tags = query.tags();
        for tag in &tags {
            // Every reported tag's digits appear in the log (the scanner
            // only ever reads digit runs out of the text).
            prop_assert!(
                text.contains(&tag.to_string()),
                "tag {tag} not in {text:?}"
            );
        }
        let mut unique = tags.clone();
        unique.sort_unstable();
        unique.dedup();
        prop_assert_eq!(unique.len(), tags.len());
    }

    #[test]
    fn tfidf_scores_keep_the_oracle_bits_on_the_shared_databases(
        noise in LOG_TEXT,
        pick in 0usize..64,
    ) {
        for db in [GuidanceDatabase::quartus(), GuidanceDatabase::iverilog()] {
            let corpus = tfidf_corpus(&db);
            // Random text alone rarely meets the vocabulary; prefixing one
            // entry's exemplar log makes most terms in-vocabulary.
            let exemplar = &db.entries[pick % db.entries.len()].log_exemplar;
            let index = TfIdfIndex::new(&corpus);
            let oracle = OracleIndex::new(&corpus);
            assert_matches_oracle(&index, &oracle, &noise);
            assert_matches_oracle(&index, &oracle, &format!("{exemplar} {noise}"));
        }
    }

    #[test]
    fn tfidf_scores_keep_the_oracle_bits_on_any_corpus(
        a in LOG_TEXT,
        b in LOG_TEXT,
        c in LOG_TEXT,
        query in LOG_TEXT,
    ) {
        // Three generated documents, one of them repeated: terms shared by
        // every document, by some and by none all occur.
        let corpus = [a.clone(), b, c, a];
        assert_matches_oracle(&TfIdfIndex::new(&corpus), &OracleIndex::new(&corpus), &query);
    }
}
