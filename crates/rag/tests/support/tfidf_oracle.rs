//! The reference TF-IDF cosine: one ordered map per document, the query
//! re-tokenised into a fresh ordered map and both norms recomputed on every
//! call. Slow, but every sum visibly runs in ascending term order, so it
//! pins the bits the interned `TfIdfIndex` must reproduce.

use std::collections::BTreeMap;

use rtlfixer_rag::text::tokenize;

/// Map-based TF-IDF index over a fixed corpus.
pub struct OracleIndex {
    docs: Vec<BTreeMap<String, f64>>,
    idf: BTreeMap<String, f64>,
}

impl OracleIndex {
    /// Builds the oracle over `corpus`.
    pub fn new<S: AsRef<str>>(corpus: &[S]) -> Self {
        let n = corpus.len().max(1) as f64;
        let mut doc_freq: BTreeMap<String, usize> = BTreeMap::new();
        let mut raw_docs = Vec::new();
        for doc in corpus {
            let mut tf: BTreeMap<String, f64> = BTreeMap::new();
            for token in tokenize(doc.as_ref()) {
                *tf.entry(token).or_insert(0.0) += 1.0;
            }
            for term in tf.keys() {
                *doc_freq.entry(term.clone()).or_insert(0) += 1;
            }
            raw_docs.push(tf);
        }
        let idf: BTreeMap<String, f64> = doc_freq
            .into_iter()
            .map(|(term, df)| (term, (n / (1.0 + df as f64)).ln() + 1.0))
            .collect();
        let docs = raw_docs
            .into_iter()
            .map(|tf| tf.into_iter().map(|(term, count)| {
                let weight = count * idf[&term];
                (term, weight)
            }).collect())
            .collect();
        OracleIndex { docs, idf }
    }

    /// Cosine similarity of `query` against document `idx`.
    pub fn similarity(&self, idx: usize, query: &str) -> f64 {
        let doc = &self.docs[idx];
        let mut qv: BTreeMap<String, f64> = BTreeMap::new();
        for token in tokenize(query) {
            *qv.entry(token).or_insert(0.0) += 1.0;
        }
        for (term, weight) in qv.iter_mut() {
            *weight *= self.idf.get(term).copied().unwrap_or(1.0);
        }
        let dot: f64 = qv
            .iter()
            .filter_map(|(term, qw)| doc.get(term).map(|dw| qw * dw))
            .sum();
        let qn: f64 = qv.values().map(|w| w * w).sum::<f64>().sqrt();
        let dn: f64 = doc.values().map(|w| w * w).sum::<f64>().sqrt();
        if qn == 0.0 || dn == 0.0 {
            0.0
        } else {
            dot / (qn * dn)
        }
    }

    /// Cosine against every document, in index order.
    pub fn scores(&self, query: &str) -> Vec<f64> {
        (0..self.docs.len()).map(|i| self.similarity(i, query)).collect()
    }

    /// The `k` best documents, best first (stable on ties).
    pub fn top_k(&self, query: &str, k: usize) -> Vec<(usize, f64)> {
        let mut scored: Vec<(usize, f64)> = self.scores(query).into_iter().enumerate().collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(k);
        scored
    }
}

/// `f64::to_bits` of every score, for bit-exact comparison.
pub fn bits(scores: impl IntoIterator<Item = f64>) -> Vec<u64> {
    scores.into_iter().map(f64::to_bits).collect()
}
