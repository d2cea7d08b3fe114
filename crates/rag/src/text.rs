//! Text utilities shared by the retrievers and (via this crate) the dataset
//! curation pipeline: tokenisation, Jaccard similarity and TF-IDF cosine.

use std::collections::{BTreeMap, HashMap, HashSet};

/// Splits text into lowercase alphanumeric tokens; numbers survive as
/// tokens so error tags like `10161` are matchable.
pub fn tokenize(text: &str) -> Vec<String> {
    let mut tokens = Vec::new();
    let mut current = String::new();
    for c in text.chars() {
        if c.is_ascii_alphanumeric() || c == '_' {
            current.push(c.to_ascii_lowercase());
        } else if !current.is_empty() {
            tokens.push(std::mem::take(&mut current));
        }
    }
    if !current.is_empty() {
        tokens.push(current);
    }
    tokens
}

/// Jaccard similarity of the token *sets* of two texts, in `[0, 1]`.
///
/// This is the distance the paper uses both for fuzzy retrieval and for the
/// DBSCAN clustering of the VerilogEval-syntax dataset (Jaccard distance =
/// `1 - similarity`).
///
/// # Examples
///
/// ```
/// use rtlfixer_rag::text::jaccard_similarity;
///
/// assert_eq!(jaccard_similarity("a b c", "a b c"), 1.0);
/// assert_eq!(jaccard_similarity("a b", "c d"), 0.0);
/// assert!((jaccard_similarity("a b c", "b c d") - 0.5).abs() < 1e-9);
/// ```
pub fn jaccard_similarity(a: &str, b: &str) -> f64 {
    let sa: HashSet<String> = tokenize(a).into_iter().collect();
    let sb: HashSet<String> = tokenize(b).into_iter().collect();
    if sa.is_empty() && sb.is_empty() {
        return 1.0;
    }
    let inter = sa.intersection(&sb).count() as f64;
    let union = sa.union(&sb).count() as f64;
    inter / union
}

/// Jaccard distance (`1 - similarity`).
pub fn jaccard_distance(a: &str, b: &str) -> f64 {
    1.0 - jaccard_similarity(a, b)
}

/// A small TF-IDF vector index over a fixed corpus, with cosine-similarity
/// queries — the "similarity search with a vector database" retriever
/// option the paper mentions in §3.3.
///
/// The vocabulary is interned at build time with term ids given in
/// lexicographic order, so ascending id order *is* ascending term order.
/// Every sum (dot product and both norms) runs in that order through
/// `Iterator::sum`, which keeps the last float bits of every score
/// identical across index instances and process runs.
#[derive(Debug, Clone)]
pub struct TfIdfIndex {
    /// Term → id, for lookups only: a `HashMap` has no stable order, so
    /// nothing ever iterates it.
    vocab: HashMap<String, u32>,
    /// Inverse document frequency by term id.
    idf: Vec<f64>,
    /// Per-document TF-IDF weights, sorted by term id.
    docs: Vec<Vec<(u32, f64)>>,
    /// Per-document L2 norm.
    norms: Vec<f64>,
}

/// A query vectorised against one index: in-vocabulary terms by ascending
/// id, plus the L2 norm over *all* query terms (out-of-vocabulary terms
/// carry idf 1 and only ever count towards the norm).
struct QueryVector {
    terms: Vec<(u32, f64)>,
    norm: f64,
}

impl TfIdfIndex {
    /// Builds an index over `corpus`.
    pub fn new<S: AsRef<str>>(corpus: &[S]) -> Self {
        let n = corpus.len().max(1) as f64;
        let mut doc_freq: BTreeMap<String, usize> = BTreeMap::new();
        let mut raw_docs = Vec::new();
        for doc in corpus {
            let tokens = tokenize(doc.as_ref());
            let mut tf: BTreeMap<String, f64> = BTreeMap::new();
            for token in &tokens {
                *tf.entry(token.clone()).or_insert(0.0) += 1.0;
            }
            for term in tf.keys() {
                *doc_freq.entry(term.clone()).or_insert(0) += 1;
            }
            raw_docs.push(tf);
        }
        let mut vocab = HashMap::with_capacity(doc_freq.len());
        let mut idf = Vec::with_capacity(doc_freq.len());
        for (id, (term, df)) in doc_freq.into_iter().enumerate() {
            let id = u32::try_from(id).expect("vocabulary fits u32 ids");
            vocab.insert(term, id);
            idf.push((n / (1.0 + df as f64)).ln() + 1.0);
        }
        // Each `tf` iterates in term order, which is id order.
        let docs: Vec<Vec<(u32, f64)>> = raw_docs
            .into_iter()
            .map(|tf| {
                tf.into_iter()
                    .map(|(term, count)| {
                        let id = vocab[&term];
                        (id, count * idf[id as usize])
                    })
                    .collect()
            })
            .collect();
        let norms = docs.iter().map(|doc| l2_norm(doc.iter().map(|&(_, w)| w))).collect();
        TfIdfIndex { vocab, idf, docs, norms }
    }

    /// Number of indexed documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Tokenises and weights `query` once: counts per distinct token in
    /// lexicographic order, each scaled by its idf (1 when unseen).
    fn vectorise(&self, query: &str) -> QueryVector {
        let mut tokens = tokenize(query);
        tokens.sort_unstable();
        let weights: Vec<(Option<u32>, f64)> = tokens
            .chunk_by(|a, b| a == b)
            .map(|run| {
                let id = self.vocab.get(&run[0]).copied();
                let idf = id.map_or(1.0, |id| self.idf[id as usize]);
                (id, run.len() as f64 * idf)
            })
            .collect();
        let norm = l2_norm(weights.iter().map(|&(_, w)| w));
        let terms = weights.into_iter().filter_map(|(id, w)| Some((id?, w))).collect();
        QueryVector { terms, norm }
    }

    /// Cosine of a vectorised query against document `idx`: a merge join
    /// of the two id-sorted term lists.
    fn cosine(&self, query: &QueryVector, idx: usize) -> f64 {
        let (doc, dn) = (&self.docs[idx], self.norms[idx]);
        let (mut q, mut d) = (query.terms.iter().peekable(), doc.iter().peekable());
        let products = std::iter::from_fn(|| loop {
            let (&&(qid, qw), &&(did, dw)) = (q.peek()?, d.peek()?);
            match qid.cmp(&did) {
                std::cmp::Ordering::Less => {
                    q.next();
                }
                std::cmp::Ordering::Greater => {
                    d.next();
                }
                std::cmp::Ordering::Equal => {
                    q.next();
                    d.next();
                    return Some(qw * dw);
                }
            }
        });
        let dot: f64 = products.sum();
        if query.norm == 0.0 || dn == 0.0 {
            0.0
        } else {
            dot / (query.norm * dn)
        }
    }

    /// Cosine similarity of `query` against every document, in index order.
    pub fn scores(&self, query: &str) -> Vec<f64> {
        let query = self.vectorise(query);
        (0..self.docs.len()).map(|idx| self.cosine(&query, idx)).collect()
    }

    /// Cosine similarity of `query` against document `idx`.
    pub fn similarity(&self, idx: usize, query: &str) -> f64 {
        if idx >= self.docs.len() {
            return 0.0;
        }
        self.cosine(&self.vectorise(query), idx)
    }

    /// Indices of the `k` most similar documents with their scores,
    /// best first.
    pub fn top_k(&self, query: &str, k: usize) -> Vec<(usize, f64)> {
        let mut scored: Vec<(usize, f64)> = self.scores(query).into_iter().enumerate().collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(k);
        scored
    }
}

/// L2 norm of `weights`, summed in the order given.
fn l2_norm(weights: impl Iterator<Item = f64>) -> f64 {
    weights.map(|w| w * w).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenize_keeps_numbers_and_underscores() {
        assert_eq!(
            tokenize("Error (10161): top_module \"clk\""),
            vec!["error", "10161", "top_module", "clk"]
        );
    }

    #[test]
    fn jaccard_bounds() {
        assert_eq!(jaccard_similarity("", ""), 1.0);
        assert_eq!(jaccard_similarity("x", ""), 0.0);
        assert_eq!(jaccard_distance("a b", "a b"), 0.0);
    }

    #[test]
    fn jaccard_is_symmetric() {
        let a = "index out of range for vector";
        let b = "index 8 cannot fall outside range";
        assert_eq!(jaccard_similarity(a, b), jaccard_similarity(b, a));
    }

    #[test]
    fn tfidf_ranks_relevant_doc_first() {
        let corpus = [
            "object is not declared verify the object name",
            "index cannot fall outside the declared range for vector",
            "syntax error near text expecting",
        ];
        let index = TfIdfIndex::new(&corpus);
        assert_eq!(index.len(), 3);
        let top = index.top_k("index 5 cannot fall outside declared range", 1);
        assert_eq!(top[0].0, 1);
        assert!(top[0].1 > 0.5);
    }

    #[test]
    fn tfidf_zero_for_disjoint_query() {
        let index = TfIdfIndex::new(&["alpha beta", "gamma delta"]);
        assert_eq!(index.similarity(0, "zeta eta"), 0.0);
    }
}
