//! Word dictionary: string ⇄ `u32` id, insertion-ordered.
//!
//! The dictionary is Figure 1 (d) of the paper: after conversion, the
//! grammar refers to words only by id, and analytics results are translated
//! back to strings when they are returned to the user.

use std::collections::HashMap;

/// Insertion-ordered word interner.
///
/// Words are text from outside the program, so the map keeps the standard
/// library's keyed hasher; the crate's own hash (`digram::mix`) is for the
/// digram tables, whose keys are ids the program assigned.
#[derive(Debug, Clone, Default)]
pub struct Dictionary {
    by_id: Vec<String>,
    by_word: HashMap<String, u32>,
}

impl Dictionary {
    /// Empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Intern `word`, returning its id (existing or freshly assigned).
    /// Takes anything that reads as a `&str` and allocates only when the
    /// word is new.
    pub fn intern(&mut self, word: impl AsRef<str>) -> u32 {
        let word = word.as_ref();
        if let Some(&id) = self.by_word.get(word) {
            return id;
        }
        let id = self.by_id.len() as u32;
        self.by_id.push(word.to_string());
        self.by_word.insert(word.to_string(), id);
        id
    }

    /// Look up an id without interning.
    pub fn id_of(&self, word: &str) -> Option<u32> {
        self.by_word.get(word).copied()
    }

    /// The word behind `id`.
    ///
    /// # Panics
    /// Panics if `id` was never assigned.
    pub fn word(&self, id: u32) -> &str {
        &self.by_id[id as usize]
    }

    /// Number of distinct words (the paper's "vocabulary size").
    pub fn len(&self) -> usize {
        self.by_id.len()
    }

    /// Whether the dictionary is empty.
    pub fn is_empty(&self) -> bool {
        self.by_id.is_empty()
    }

    /// Iterate `(id, word)` in id order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &str)> {
        self.by_id.iter().enumerate().map(|(i, w)| (i as u32, w.as_str()))
    }

    /// Rebuild from an id-ordered word list (deserialization path).
    pub fn from_words(words: Vec<String>) -> Self {
        let by_word = words.iter().enumerate().map(|(i, w)| (w.clone(), i as u32)).collect();
        Dictionary { by_id: words, by_word }
    }

    /// Total bytes of word text (used to size serialized images).
    pub fn text_bytes(&self) -> usize {
        self.by_id.iter().map(|w| w.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut d = Dictionary::new();
        let a = d.intern("alpha");
        let b = d.intern("beta");
        let a2 = d.intern("alpha");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn ids_are_dense_and_ordered() {
        let mut d = Dictionary::new();
        for (i, w) in ["x", "y", "z"].iter().enumerate() {
            assert_eq!(d.intern(w), i as u32);
        }
        assert_eq!(d.word(1), "y");
    }

    #[test]
    fn id_of_does_not_intern() {
        let mut d = Dictionary::new();
        d.intern("known");
        assert_eq!(d.id_of("known"), Some(0));
        assert_eq!(d.id_of("unknown"), None);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn from_words_round_trips() {
        let mut d = Dictionary::new();
        d.intern("a");
        d.intern("b");
        let rebuilt = Dictionary::from_words(d.by_id.clone());
        assert_eq!(rebuilt.id_of("b"), Some(1));
        assert_eq!(rebuilt.len(), 2);
    }

    #[test]
    fn iter_yields_in_id_order() {
        let mut d = Dictionary::new();
        d.intern("p");
        d.intern("q");
        let pairs: Vec<_> = d.iter().collect();
        assert_eq!(pairs, vec![(0, "p"), (1, "q")]);
    }

    #[test]
    fn text_bytes_sums_lengths() {
        let mut d = Dictionary::new();
        d.intern("ab");
        d.intern("cde");
        assert_eq!(d.text_bytes(), 5);
    }
}
