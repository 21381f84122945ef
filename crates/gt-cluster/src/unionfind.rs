//! Disjoint-set forest with union by rank and path compression.

/// A classic union-find over dense `usize` keys.
#[derive(Debug, Clone)]
pub(crate) struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    /// Number of elements (not sets).
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Add a new singleton and return its key.
    pub fn push(&mut self) -> usize {
        let id = self.parent.len();
        self.parent.push(id);
        self.rank.push(0);
        id
    }

    /// Representative of `x`'s set.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merge the sets containing `a` and `b`. Returns the new root.
    pub fn union(&mut self, a: usize, b: usize) -> usize {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return ra;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => {
                self.parent[ra] = rb;
                rb
            }
            std::cmp::Ordering::Greater => {
                self.parent[rb] = ra;
                ra
            }
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
                ra
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_start_separate() {
        let mut uf = UnionFind::new(5);
        assert_ne!(uf.find(0), uf.find(1));
        assert_eq!(uf.find(3), 3);
        assert_eq!(uf.len(), 5);
    }

    #[test]
    fn union_connects_transitively() {
        let mut uf = UnionFind::new(6);
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(4, 5);
        assert_eq!(uf.find(0), uf.find(2));
        assert_eq!(uf.find(4), uf.find(5));
        assert_ne!(uf.find(2), uf.find(4));
    }

    #[test]
    fn push_grows_the_forest() {
        let mut uf = UnionFind::new(0);
        let a = uf.push();
        let b = uf.push();
        assert_eq!((a, b), (0, 1));
        uf.union(a, b);
        assert_eq!(uf.find(0), uf.find(1));
    }

    #[test]
    fn union_is_idempotent() {
        let mut uf = UnionFind::new(3);
        let r1 = uf.union(0, 1);
        let r2 = uf.union(0, 1);
        assert_eq!(r1, r2);
        assert_ne!(uf.find(2), r1);
    }

    #[test]
    fn path_compression_preserves_roots() {
        let mut uf = UnionFind::new(100);
        for i in 1..100 {
            uf.union(i - 1, i);
        }
        let root = uf.find(0);
        for i in 0..100 {
            assert_eq!(uf.find(i), root);
        }
    }
}
