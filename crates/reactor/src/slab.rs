//! Dense free-list slab keying connection state by epoll token.

/// A slab of connection entries: stable `usize` keys (reused after
/// removal), O(1) insert/remove, no per-entry allocation beyond the
/// value itself. Reactor loops use the key as the epoll token.
#[derive(Debug)]
pub struct Slab<T> {
    slots: Vec<Option<T>>,
    free: Vec<usize>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab { slots: Vec::new(), free: Vec::new(), len: 0 }
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Slab<T> {
        Slab::default()
    }

    /// Inserts a value, returning its key.
    pub fn insert(&mut self, value: T) -> usize {
        self.len += 1;
        match self.free.pop() {
            Some(idx) => {
                if let Some(slot) = self.slots.get_mut(idx) {
                    *slot = Some(value);
                }
                idx
            }
            None => {
                self.slots.push(Some(value));
                self.slots.len() - 1
            }
        }
    }

    /// The value under `key`, if live.
    pub fn get(&self, key: usize) -> Option<&T> {
        self.slots.get(key).and_then(|s| s.as_ref())
    }

    /// Mutable access to the value under `key`, if live.
    pub fn get_mut(&mut self, key: usize) -> Option<&mut T> {
        self.slots.get_mut(key).and_then(|s| s.as_mut())
    }

    /// Removes and returns the value under `key`.
    pub fn remove(&mut self, key: usize) -> Option<T> {
        let value = self.slots.get_mut(key).and_then(|s| s.take());
        if value.is_some() {
            self.len -= 1;
            self.free.push(key);
        }
        value
    }

    /// Removes, and drops, every entry `keep` says no to.
    pub fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        for (key, slot) in self.slots.iter_mut().enumerate() {
            if slot.as_ref().is_some_and(|v| !keep(v)) {
                *slot = None;
                self.len -= 1;
                self.free.push(key);
            }
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over live `(key, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|v| (i, v)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_are_reused_after_removal() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.remove(a), Some("a"));
        assert_eq!(slab.remove(a), None, "double remove is a no-op");
        let c = slab.insert("c");
        assert_eq!(c, a, "freed key is reused");
        assert_eq!(slab.get(b), Some(&"b"));
        assert_eq!(slab.get(c), Some(&"c"));
        assert_eq!(slab.iter().count(), 2);
        slab.retain(|v| *v != "b");
        assert_eq!((slab.len(), slab.get(b)), (1, None));
        assert_eq!(slab.insert("d"), b, "a key retain freed is reused");
    }
}
