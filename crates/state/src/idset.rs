//! A persistent sorted set of 64-bit ids: the payload of [`crate::Value::Set`].
//!
//! TStream keeps *copies* of state values — temporary versions, the rollback
//! log, event blotters (Sections IV-C.2, IV-F) — and TP's unique-vehicle sets
//! (Section VI-A) grow with the run.  `IdSet` is a B+-tree of immutable,
//! reference-counted nodes, so a copy costs the same whatever the set holds: a
//! clone shares the whole tree, an insert copies only the root-to-leaf path it
//! changes (nothing, where no clone shares it), and every clone keeps its
//! content.  Each node is one allocation of fixed size; ids iterate ascending,
//! as the codec and the state root write them; nothing removes an id.

use std::fmt;
use std::sync::Arc;

/// Ids per leaf.
const LEAF_CAP: usize = 32;
/// Children per inner node.
const INNER_CAP: usize = 16;

/// A persistent sorted set of `u64` ids.  See the module documentation.
#[derive(Clone, Default)]
pub struct IdSet {
    root: Option<Arc<Node>>,
    len: usize,
}

#[derive(Clone)]
enum Node {
    Leaf(Leaf),
    Inner(Inner),
}

/// `ids[..len]`, strictly ascending.
#[derive(Clone)]
struct Leaf {
    len: u8,
    ids: [u64; LEAF_CAP],
}

/// `children[..len]` are live and `mins[i]` is the smallest id below
/// `children[i]`, so `mins[..len]` is strictly ascending too.
#[derive(Clone, Default)]
struct Inner {
    len: u8,
    mins: [u64; INNER_CAP],
    children: [Option<Arc<Node>>; INNER_CAP],
}

/// A node split off to the right of its sibling, with the smallest id below it.
type Split = (u64, Arc<Node>);

impl Leaf {
    fn new(ids: &[u64]) -> Self {
        let mut leaf = Leaf {
            len: ids.len() as u8,
            ids: [0; LEAF_CAP],
        };
        leaf.ids[..ids.len()].copy_from_slice(ids);
        leaf
    }

    fn ids(&self) -> &[u64] {
        &self.ids[..self.len as usize]
    }

    /// Insert an absent `id`; a full leaf keeps its lower half and returns
    /// the upper.
    fn insert(&mut self, id: u64) -> Option<Leaf> {
        if (self.len as usize) < LEAF_CAP {
            let (at, len) = (self.ids().partition_point(|&x| x < id), self.len as usize);
            self.ids.copy_within(at..len, at + 1);
            self.ids[at] = id;
            self.len += 1;
            return None;
        }
        let mut right = Leaf::new(&self.ids[LEAF_CAP / 2..]);
        self.len = (LEAF_CAP / 2) as u8;
        let half = if id < right.ids[0] { self } else { &mut right };
        half.insert(id);
        Some(right)
    }
}

impl Inner {
    fn new(entries: impl IntoIterator<Item = Split>) -> Self {
        let mut inner = Inner::default();
        for (min, child) in entries {
            inner.mins[inner.len as usize] = min;
            inner.children[inner.len as usize] = Some(child);
            inner.len += 1;
        }
        inner
    }

    /// Index of the child an id belongs below.
    fn route(&self, id: u64) -> usize {
        self.mins[..self.len as usize]
            .partition_point(|&min| min <= id)
            .saturating_sub(1)
    }

    /// Place a child at `at`; a full node keeps its lower half and returns
    /// the upper.
    fn insert(&mut self, at: usize, (min, child): Split) -> Option<Inner> {
        if (self.len as usize) < INNER_CAP {
            let len = self.len as usize;
            self.mins.copy_within(at..len, at + 1);
            self.mins[at] = min;
            // The slot at `len` is empty; rotating moves it to `at`.
            self.children[at..=len].rotate_right(1);
            self.children[at] = Some(child);
            self.len += 1;
            return None;
        }
        const HALF: usize = INNER_CAP / 2;
        let upper = self.children[HALF..].iter_mut().filter_map(Option::take);
        let mut right = Inner::new(self.mins[HALF..].iter().copied().zip(upper));
        self.len = HALF as u8;
        if at <= HALF {
            self.insert(at, (min, child));
        } else {
            right.insert(at - HALF, (min, child));
        }
        Some(right)
    }
}

impl Node {
    /// Insert an absent `id` below `node`, first copying the node if a clone
    /// of the set shares it.
    fn insert(node: &mut Arc<Node>, id: u64) -> Option<Split> {
        match Arc::make_mut(node) {
            Node::Leaf(leaf) => {
                let right = leaf.insert(id)?;
                Some((right.ids[0], Arc::new(Node::Leaf(right))))
            }
            Node::Inner(inner) => {
                let at = inner.route(id);
                inner.mins[at] = inner.mins[at].min(id);
                let child = inner.children[at].as_mut().expect("routed to a live child");
                let split = Node::insert(child, id)?;
                let right = inner.insert(at + 1, split)?;
                Some((right.mins[0], Arc::new(Node::Inner(right))))
            }
        }
    }

    fn min(&self) -> u64 {
        match self {
            Node::Leaf(leaf) => leaf.ids[0],
            Node::Inner(inner) => inner.mins[0],
        }
    }
}

impl IdSet {
    /// The empty set; allocates nothing.
    pub fn new() -> Self {
        IdSet::default()
    }

    /// Number of ids in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set holds no id.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `id` is in the set.
    pub fn contains(&self, id: u64) -> bool {
        let mut node = self.root.as_deref();
        while let Some(current) = node {
            node = match current {
                Node::Leaf(leaf) => return leaf.ids().binary_search(&id).is_ok(),
                Node::Inner(inner) => inner.children[inner.route(id)].as_deref(),
            };
        }
        false
    }

    /// Add `id`; returns whether it was absent.  Copies the nodes on the way to
    /// its leaf that a clone shares, updates the rest in place; a duplicate
    /// copies nothing.
    pub fn insert(&mut self, id: u64) -> bool {
        if self.contains(id) {
            return false;
        }
        self.len += 1;
        let Some(root) = &mut self.root else {
            self.root = Some(Arc::new(Node::Leaf(Leaf::new(&[id]))));
            return true;
        };
        if let Some(right) = Node::insert(root, id) {
            let left = (root.min(), Arc::clone(root));
            *root = Arc::new(Node::Inner(Inner::new([left, right])));
        }
        true
    }

    /// Build a set from strictly ascending ids in one pass, every node but the
    /// last of each level full; `None` if they are not strictly ascending.
    pub fn from_sorted(ids: &[u64]) -> Option<Self> {
        if !ids.windows(2).all(|pair| pair[0] < pair[1]) {
            return None;
        }
        let mut level: Vec<Split> = ids
            .chunks(LEAF_CAP)
            .map(|chunk| (chunk[0], Arc::new(Node::Leaf(Leaf::new(chunk)))))
            .collect();
        while level.len() > 1 {
            let mut below = level.into_iter().peekable();
            level = Vec::new();
            while let Some(&(min, _)) = below.peek() {
                let inner = Inner::new(below.by_ref().take(INNER_CAP));
                level.push((min, Arc::new(Node::Inner(inner))));
            }
        }
        Some(IdSet {
            root: level.pop().map(|(_, root)| root),
            len: ids.len(),
        })
    }

    /// The ids in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        let mut iter = Iter::default();
        if let Some(root) = &self.root {
            iter.descend(root);
        }
        iter
    }
}

/// Ascending iterator over an [`IdSet`].
#[derive(Default)]
pub struct Iter<'a> {
    /// The unvisited children of each inner node above the current leaf.
    above: Vec<std::iter::Flatten<std::slice::Iter<'a, Option<Arc<Node>>>>>,
    leaf: std::slice::Iter<'a, u64>,
}

impl<'a> Iter<'a> {
    /// Move to the first leaf below `node`.
    fn descend(&mut self, mut node: &'a Node) {
        while let Node::Inner(inner) = node {
            let mut children = inner.children[..inner.len as usize].iter().flatten();
            let Some(first) = children.next() else { return };
            self.above.push(children);
            node = first;
        }
        if let Node::Leaf(leaf) = node {
            self.leaf = leaf.ids().iter();
        }
    }
}

impl Iterator for Iter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            if let Some(&id) = self.leaf.next() {
                return Some(id);
            }
            match self.above.last_mut()?.next() {
                Some(child) => self.descend(child),
                None => drop(self.above.pop()),
            }
        }
    }
}

impl FromIterator<u64> for IdSet {
    fn from_iter<I: IntoIterator<Item = u64>>(ids: I) -> Self {
        let mut set = IdSet::new();
        for id in ids {
            set.insert(id);
        }
        set
    }
}

/// Equal content, whatever order built the trees and however they share.
impl PartialEq for IdSet {
    fn eq(&self, other: &Self) -> bool {
        let shared = matches!((&self.root, &other.root), (Some(a), Some(b)) if Arc::ptr_eq(a, b));
        shared || (self.len == other.len && self.iter().eq(other.iter()))
    }
}

impl fmt::Debug for IdSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// Insert sequences long enough to split leaves, inner nodes and the
    /// root: dense ids repeat, arbitrary ones land anywhere, and the top of
    /// the range keeps the last leaf busy.
    fn ids() -> impl Strategy<Value = Vec<u64>> {
        let id = prop_oneof![
            0u64..3_000,
            any::<u64>(),
            (0u64..40).prop_map(|k| u64::MAX - k)
        ];
        proptest::collection::vec(id, 0..6_000)
    }

    fn depth(set: &IdSet) -> usize {
        let mut node = set.root.as_deref();
        let mut depth = 0;
        while let Some(current) = node {
            depth += 1;
            node = match current {
                Node::Leaf(_) => None,
                Node::Inner(inner) => inner.children[0].as_deref(),
            };
        }
        depth
    }

    fn assert_matches(set: &IdSet, model: &BTreeSet<u64>) {
        assert_eq!(set.len(), model.len());
        assert_eq!(set.is_empty(), model.is_empty());
        assert!(
            set.iter().eq(model.iter().copied()),
            "ascending, no more, no less"
        );
        for &id in model {
            assert!(set.contains(id));
            for near in [id.wrapping_sub(1), id.wrapping_add(1)] {
                assert_eq!(set.contains(near), model.contains(&near));
            }
        }
    }

    #[test]
    fn a_set_is_two_words_and_both_node_kinds_are_one_size() {
        assert_eq!(std::mem::size_of::<IdSet>(), 16);
        assert_eq!(std::mem::size_of::<Leaf>(), std::mem::size_of::<Inner>());
    }

    #[test]
    fn ascending_inserts_grow_the_tree_level_by_level() {
        let mut set = IdSet::new();
        assert_eq!(depth(&set), 0);
        let mut clones = Vec::new();
        for id in 0..20_000u64 {
            if id.is_power_of_two() {
                clones.push((id, set.clone()));
            }
            assert!(set.insert(id * 3));
        }
        assert!(depth(&set) >= 4, "the root split {} times", depth(&set) - 1);
        for (len, clone) in clones {
            assert!(clone.iter().eq((0..len).map(|id| id * 3)));
        }
        let sorted: Vec<u64> = (0..20_000).map(|id| id * 3).collect();
        let bulk = IdSet::from_sorted(&sorted).unwrap();
        assert_eq!(
            depth(&bulk),
            4,
            "625 full leaves, 40 + 3 inner nodes, the root"
        );
        assert_eq!(bulk, set);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// `insert`, `len`, `contains` and `iter` against `BTreeSet` — and
        /// every clone still holds what the set held when the clone was
        /// taken, whatever the original split afterwards.
        #[test]
        fn matches_a_btreeset_and_clones_persist(
            ids in ids(),
            clone_at in proptest::collection::vec(0usize..6_000, 0..6),
        ) {
            let mut set = IdSet::new();
            let mut model = BTreeSet::new();
            let mut clones = Vec::new();
            for (step, &id) in ids.iter().enumerate() {
                if clone_at.contains(&step) {
                    clones.push((set.clone(), model.clone()));
                }
                prop_assert_eq!(set.insert(id), model.insert(id));
                prop_assert_eq!(set.len(), model.len());
            }
            assert_matches(&set, &model);
            for (clone, then) in &clones {
                assert_matches(clone, then);
            }
        }

        /// Equality is by content: insertion order and bulk building give
        /// different trees that compare equal, and one id more or less does
        /// not.
        #[test]
        fn equality_ignores_how_the_tree_was_built(ids in ids(), extra in any::<u64>()) {
            let forward: IdSet = ids.iter().copied().collect();
            let backward: IdSet = ids.iter().rev().copied().collect();
            let sorted: Vec<u64> = ids.iter().copied().collect::<BTreeSet<_>>().into_iter().collect();
            let bulk = IdSet::from_sorted(&sorted).expect("strictly ascending");
            prop_assert_eq!(&forward, &backward);
            prop_assert_eq!(&forward, &bulk);
            prop_assert_eq!(format!("{forward:?}"), format!("{:?}", sorted.iter().collect::<BTreeSet<_>>()));

            let mut more = bulk.clone();
            prop_assert_eq!(more.insert(extra), !sorted.contains(&extra));
            prop_assert_eq!(more == forward, sorted.contains(&extra));
        }

        /// An id already present leaves a shared set sharing: nothing is
        /// copied to find out.
        #[test]
        fn a_duplicate_insert_into_a_shared_set_copies_nothing(ids in ids()) {
            let original: IdSet = ids.iter().copied().collect();
            let mut shared = original.clone();
            for &id in &ids {
                prop_assert!(!shared.insert(id));
            }
            match (&original.root, &shared.root) {
                (Some(a), Some(b)) => prop_assert!(Arc::ptr_eq(a, b)),
                (a, b) => prop_assert!(a.is_none() && b.is_none()),
            }
        }
    }

    #[test]
    fn from_sorted_rejects_what_is_not_strictly_ascending() {
        assert_eq!(IdSet::from_sorted(&[]), Some(IdSet::new()));
        assert!(IdSet::from_sorted(&[1, 2, 2]).is_none());
        assert!(IdSet::from_sorted(&[1, 3, 2]).is_none());
        let ids: Vec<u64> = (0..1_000).collect();
        assert_eq!(IdSet::from_sorted(&ids).unwrap().len(), 1_000);
    }
}
