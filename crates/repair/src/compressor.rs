//! The RePair compressor (Larsson & Moffat, 2000), adapted per §3 so that a
//! protected separator symbol never enters a rule.
//!
//! Implementation notes (the classic linear-time machinery):
//!
//! * the working sequence keeps holes where right-hand symbols were
//!   consumed; maximal runs of holes store their two boundary positions in
//!   a `jump` array, so neighbour lookup is O(1);
//! * every *counted* occurrence of a pair is threaded into a doubly-linked
//!   list (`onext`/`oprev` indexed by the position of the pair's left
//!   symbol), with the list head and an exact count in a hash map;
//! * pair priorities live in a lazy-deletion max-heap: entries are pushed
//!   on every count increase and validated against the map when popped;
//! * self-overlapping runs (`AAAA`) are counted left-to-right without
//!   overlap, and every replacement re-validates the underlying symbols, so
//!   stale occurrences are skipped rather than corrupting the output. In
//!   rare self-overlap corner cases a rule may end up used once — harmless
//!   for correctness, negligible for compression.

use gcm_encodings::fxhash::FxHashMap;

use crate::slp::{MrSlp, Slp};

/// Marks a hole in the working sequence.
const EMPTY: u32 = u32::MAX;
/// Null link in the occurrence lists.
const NONE: u32 = u32::MAX;

/// Configuration for [`RePair`].
#[derive(Debug, Clone, Copy)]
pub struct RePairConfig {
    /// Stop after this many rules (`None` = until no pair repeats).
    pub max_rules: Option<usize>,
    /// Only replace pairs occurring at least this often (min 2).
    pub min_count: u32,
}

impl Default for RePairConfig {
    fn default() -> Self {
        Self {
            max_rules: None,
            min_count: 2,
        }
    }
}

/// The RePair grammar compressor.
#[derive(Debug, Clone, Default)]
pub struct RePair {
    config: RePairConfig,
}

/// Reusable working storage for [`RePair::compress_with_scratch`].
///
/// One compression allocates five length-`n` arrays plus a pair map and a
/// priority heap; a build pipeline compressing many shards back to back
/// (or many blocks inside one shard) would pay that allocation churn per
/// block and thrash the allocator from every pool worker at once. A
/// scratch arena keeps the buffers alive between compressions: the first
/// call grows them, later calls reuse the capacity. A `Default`-fresh
/// scratch is always valid, so the arena is purely an optimisation.
#[derive(Debug, Default)]
pub struct RePairScratch {
    sym: Vec<u32>,
    jump: Vec<u32>,
    onext: Vec<u32>,
    oprev: Vec<u32>,
    in_list: Vec<bool>,
    pairs: FxHashMap<u64, PairRec>,
    heap: std::collections::BinaryHeap<(u32, u64)>,
}

impl RePairScratch {
    /// An empty scratch arena (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// Heap bytes currently retained by the arena's buffers (diagnostic;
    /// lets tests assert that repeated compressions stop growing it).
    pub fn retained_bytes(&self) -> usize {
        self.sym.capacity() * 4
            + self.jump.capacity() * 4
            + self.onext.capacity() * 4
            + self.oprev.capacity() * 4
            + self.in_list.capacity()
            + self.pairs.capacity() * (8 + std::mem::size_of::<PairRec>())
            + self.heap.capacity() * std::mem::size_of::<(u32, u64)>()
    }
}

#[derive(Debug, Clone, Copy)]
struct PairRec {
    count: u32,
    head: u32,
}

impl Default for PairRec {
    fn default() -> Self {
        // An empty occurrence list: `NONE`, not 0 (0 is a valid position).
        Self {
            count: 0,
            head: NONE,
        }
    }
}

#[inline]
fn pack(a: u32, b: u32) -> u64 {
    ((a as u64) << 32) | b as u64
}

struct State {
    sym: Vec<u32>,
    /// Boundary pointers of hole runs (valid only at run boundaries).
    jump: Vec<u32>,
    onext: Vec<u32>,
    oprev: Vec<u32>,
    in_list: Vec<bool>,
    pairs: FxHashMap<u64, PairRec>,
    heap: std::collections::BinaryHeap<(u32, u64)>,
    protected: Option<u32>,
}

impl State {
    /// Builds the working state from `scratch`'s buffers (taking them out
    /// of the arena; [`State::finish`] hands them back). Buffer *contents*
    /// are fully reinitialised here, so reuse never leaks state between
    /// compressions.
    fn new_in(input: &[u32], protected: Option<u32>, scratch: &mut RePairScratch) -> Self {
        let n = input.len();
        let mut sym = std::mem::take(&mut scratch.sym);
        sym.clear();
        sym.extend_from_slice(input);
        let mut jump = std::mem::take(&mut scratch.jump);
        jump.clear();
        jump.resize(n, 0);
        let mut onext = std::mem::take(&mut scratch.onext);
        onext.clear();
        onext.resize(n, NONE);
        let mut oprev = std::mem::take(&mut scratch.oprev);
        oprev.clear();
        oprev.resize(n, NONE);
        let mut in_list = std::mem::take(&mut scratch.in_list);
        in_list.clear();
        in_list.resize(n, false);
        let mut pairs = std::mem::take(&mut scratch.pairs);
        pairs.clear();
        let mut heap = std::mem::take(&mut scratch.heap);
        heap.clear();
        Self {
            sym,
            jump,
            onext,
            oprev,
            in_list,
            pairs,
            heap,
            protected,
        }
    }

    #[inline]
    fn is_protected(&self, s: u32) -> bool {
        Some(s) == self.protected
    }

    /// Next filled position after `i`, exploiting gap boundary pointers.
    #[inline]
    fn next_filled(&self, i: usize) -> Option<usize> {
        let j = i + 1;
        if j >= self.sym.len() {
            return None;
        }
        if self.sym[j] != EMPTY {
            return Some(j);
        }
        // `j` is the left boundary of its hole run (position `i` is filled).
        let end = self.jump[j] as usize;
        let k = end + 1;
        (k < self.sym.len()).then_some(k)
    }

    /// Previous filled position before `i`.
    #[inline]
    fn prev_filled(&self, i: usize) -> Option<usize> {
        if i == 0 {
            return None;
        }
        let j = i - 1;
        if self.sym[j] != EMPTY {
            return Some(j);
        }
        let start = self.jump[j] as usize;
        (start > 0).then(|| start - 1)
    }

    /// Turns position `j` into a hole, merging with adjacent hole runs.
    #[inline]
    fn clear_position(&mut self, j: usize) {
        debug_assert_ne!(self.sym[j], EMPTY);
        self.sym[j] = EMPTY;
        self.in_list[j] = false;
        let mut start = j;
        let mut end = j;
        if j > 0 && self.sym[j - 1] == EMPTY {
            start = self.jump[j - 1] as usize;
        }
        if j + 1 < self.sym.len() && self.sym[j + 1] == EMPTY {
            end = self.jump[j + 1] as usize;
        }
        self.jump[start] = end as u32;
        self.jump[end] = start as u32;
    }

    /// Links position `pos` as a counted occurrence of pair `(a, b)`.
    fn add_occurrence(&mut self, pos: usize, a: u32, b: u32) {
        debug_assert!(!self.is_protected(a) && !self.is_protected(b));
        let key = pack(a, b);
        let rec = self.pairs.entry(key).or_default();
        self.onext[pos] = rec.head;
        self.oprev[pos] = NONE;
        if rec.head != NONE {
            self.oprev[rec.head as usize] = pos as u32;
        }
        rec.head = pos as u32;
        rec.count += 1;
        self.in_list[pos] = true;
        if rec.count >= 2 {
            self.heap.push((rec.count, key));
        }
    }

    /// Unlinks the counted occurrence at `pos`, filed under pair `(a, b)`.
    ///
    /// Tolerates the pair record having been detached (its map entry
    /// removed) — then only the list links are fixed.
    fn remove_occurrence(&mut self, pos: usize, a: u32, b: u32) {
        debug_assert!(self.in_list[pos]);
        let key = pack(a, b);
        let prev = self.oprev[pos];
        let next = self.onext[pos];
        if prev != NONE {
            self.onext[prev as usize] = next;
        }
        if next != NONE {
            self.oprev[next as usize] = prev;
        }
        if let Some(rec) = self.pairs.get_mut(&key) {
            if rec.head == pos as u32 {
                rec.head = next;
            }
            rec.count = rec.count.saturating_sub(1);
            if rec.count == 0 {
                self.pairs.remove(&key);
            }
        }
        self.in_list[pos] = false;
        self.onext[pos] = NONE;
        self.oprev[pos] = NONE;
    }

    /// Initial non-overlapping pair count (left-to-right).
    fn count_initial_pairs(&mut self) {
        let n = self.sym.len();
        let mut i = 0usize;
        while i + 1 < n {
            let a = self.sym[i];
            let b = self.sym[i + 1];
            if !self.is_protected(a) && !self.is_protected(b) {
                self.add_occurrence(i, a, b);
                // Skip the overlapping middle of a run like AAA.
                if a == b && i + 2 < n && self.sym[i + 2] == a {
                    i += 2;
                    continue;
                }
            }
            i += 1;
        }
    }

    /// Replaces every valid occurrence of `(a, b)` with `n_sym`.
    ///
    /// Returns the number of replacements performed.
    fn replace_all(&mut self, a: u32, b: u32, n_sym: u32) -> usize {
        self.replace_all_rec(a, b, n_sym, None)
    }

    /// As [`replace_all`](Self::replace_all), optionally recording the
    /// position of every substitution (where `n_sym` now sits) — the
    /// MR-RePair extension loop needs those to probe the symbols
    /// neighbouring the fresh nonterminal.
    fn replace_all_rec(
        &mut self,
        a: u32,
        b: u32,
        n_sym: u32,
        mut record: Option<&mut Vec<usize>>,
    ) -> usize {
        let key = pack(a, b);
        let Some(rec) = self.pairs.remove(&key) else {
            return 0;
        };
        // Snapshot the occurrence list before any mutation: replacements
        // rewrite the link arrays (neighbour removals, re-additions), so a
        // live walk could be cut short or diverted into another pair's list.
        let mut occurrences = Vec::with_capacity(rec.count as usize);
        let mut pos = rec.head;
        while pos != NONE {
            occurrences.push(pos as usize);
            pos = self.onext[pos as usize];
        }
        let mut replaced = 0usize;
        for i in occurrences {
            // Re-validate against the live sequence: earlier replacements in
            // this very walk may have consumed this occurrence.
            if self.sym[i] != a {
                continue;
            }
            let Some(j) = self.next_filled(i) else {
                continue;
            };
            if self.sym[j] != b {
                continue;
            }
            if self.in_list[i] {
                // Unlink from whatever list the position currently sits in
                // (normally the remnants of the detached one;
                // `remove_occurrence` tolerates the missing map entry).
                self.remove_occurrence(i, a, b);
            }

            // Decrement the left-neighbour pair (sym[l], a) at l.
            let left = self.prev_filled(i);
            if let Some(l) = left {
                if self.in_list[l] {
                    let ls = self.sym[l];
                    self.remove_occurrence(l, ls, a);
                }
            }
            // Decrement the right-neighbour pair (b, sym[r]) at j.
            let right = self.next_filled(j);
            if let Some(r) = right {
                if self.in_list[j] {
                    let rs = self.sym[r];
                    self.remove_occurrence(j, b, rs);
                }
            }

            // Perform the substitution.
            self.sym[i] = n_sym;
            self.clear_position(j);
            replaced += 1;
            if let Some(rec) = record.as_deref_mut() {
                rec.push(i);
            }

            // New neighbour pairs around the fresh nonterminal.
            if let Some(l) = left {
                let ls = self.sym[l];
                if !self.is_protected(ls) {
                    self.add_occurrence(l, ls, n_sym);
                }
            }
            if let Some(r) = right {
                let rs = self.sym[r];
                if !self.is_protected(rs) {
                    self.add_occurrence(i, n_sym, rs);
                }
            }
        }
        replaced
    }

    /// Pops the most frequent pair still meeting `min_count`.
    fn pop_best(&mut self, min_count: u32) -> Option<(u32, u32)> {
        while let Some((count, key)) = self.heap.pop() {
            match self.pairs.get(&key) {
                Some(rec) if rec.count == count && count >= min_count => {
                    return Some(((key >> 32) as u32, key as u32));
                }
                Some(rec) if rec.count >= min_count && rec.count < count => {
                    // Stale (higher) entry: requeue with the true count.
                    self.heap.push((rec.count, key));
                }
                _ => {}
            }
        }
        None
    }

    /// Compacts the working sequence (dropping holes) and returns every
    /// buffer to `scratch` for the next compression.
    fn finish(mut self, scratch: &mut RePairScratch) -> Vec<u32> {
        let seq: Vec<u32> = self.sym.iter().copied().filter(|&s| s != EMPTY).collect();
        scratch.sym = std::mem::take(&mut self.sym);
        scratch.jump = std::mem::take(&mut self.jump);
        scratch.onext = std::mem::take(&mut self.onext);
        scratch.oprev = std::mem::take(&mut self.oprev);
        scratch.in_list = std::mem::take(&mut self.in_list);
        scratch.pairs = std::mem::take(&mut self.pairs);
        scratch.heap = std::mem::take(&mut self.heap);
        seq
    }
}

impl RePair {
    /// A compressor with default configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// A compressor with the given configuration.
    pub fn with_config(config: RePairConfig) -> Self {
        Self { config }
    }

    /// Compresses `input`, never forming rules that contain `protected`.
    ///
    /// `first_nt` must be strictly greater than every input symbol; fresh
    /// nonterminals are numbered `first_nt, first_nt + 1, …`.
    ///
    /// # Panics
    /// Panics if an input symbol is `>= first_nt`, if the input contains
    /// the reserved value `u32::MAX`, or if the input length exceeds
    /// `u32::MAX - 1`.
    pub fn compress(&self, input: &[u32], first_nt: u32, protected: Option<u32>) -> Slp {
        self.compress_with_scratch(input, first_nt, protected, &mut RePairScratch::default())
    }

    /// As [`compress`](Self::compress), drawing all working storage from
    /// `scratch` so repeated compressions (per-block builds, the staged
    /// pipeline's pool workers) reuse their buffers instead of
    /// reallocating. Output is identical to [`compress`](Self::compress)
    /// for any scratch state.
    ///
    /// # Panics
    /// As [`compress`](Self::compress).
    pub fn compress_with_scratch(
        &self,
        input: &[u32],
        first_nt: u32,
        protected: Option<u32>,
        scratch: &mut RePairScratch,
    ) -> Slp {
        assert!(input.len() < u32::MAX as usize, "input too long");
        if let Some(&max) = input.iter().max() {
            assert!(max < first_nt, "input symbol {max} >= first_nt {first_nt}");
            assert!(max != EMPTY, "u32::MAX is reserved");
        }
        let min_count = self.config.min_count.max(2);
        let max_rules = self
            .config
            .max_rules
            .unwrap_or(usize::MAX)
            .min((u32::MAX - first_nt) as usize);

        let mut st = State::new_in(input, protected, scratch);
        st.count_initial_pairs();
        let mut rules: Vec<(u32, u32)> = Vec::new();
        while rules.len() < max_rules {
            let Some((a, b)) = st.pop_best(min_count) else {
                break;
            };
            let n_sym = first_nt + rules.len() as u32;
            let replaced = st.replace_all(a, b, n_sym);
            if replaced == 0 {
                // All occurrences turned out stale; no symbol references
                // n_sym, so simply do not record the rule.
                continue;
            }
            rules.push((a, b));
        }
        let seq = st.finish(scratch);
        Slp::new(first_nt, rules, seq)
    }

    /// MR-RePair compression (Furuya et al.): like
    /// [`compress`](Self::compress) but each fresh nonterminal greedily
    /// consumes the **maximal repeat** around its founding pair, so a
    /// rule's right-hand side may grow beyond two symbols and the grammar
    /// needs fewer rules overall.
    ///
    /// # Panics
    /// As [`compress`](Self::compress).
    pub fn compress_mr(&self, input: &[u32], first_nt: u32, protected: Option<u32>) -> MrSlp {
        self.compress_mr_with_scratch(input, first_nt, protected, &mut RePairScratch::default())
    }

    /// As [`compress_mr`](Self::compress_mr), drawing all working storage
    /// from `scratch` — the same arena
    /// [`compress_with_scratch`](Self::compress_with_scratch) uses, so a
    /// pipeline can interleave both stages over one set of buffers.
    ///
    /// The inner loop is the pair-replacement machinery unchanged; after
    /// a pair `(a, b)` is replaced by `X`, the rule is extended while
    /// *every* occurrence of `X` is followed (or preceded) by one same
    /// symbol `c` — detected exactly via the pair table
    /// (`count(X, c) == |occurrences of X|`) and applied with the same
    /// `replace_all` bookkeeping (`X c → X` keeps the occurrence count
    /// and positions consistent). That is precisely the maximal-repeat
    /// run of the founding pair.
    ///
    /// # Panics
    /// As [`compress`](Self::compress).
    pub fn compress_mr_with_scratch(
        &self,
        input: &[u32],
        first_nt: u32,
        protected: Option<u32>,
        scratch: &mut RePairScratch,
    ) -> MrSlp {
        assert!(input.len() < u32::MAX as usize, "input too long");
        if let Some(&max) = input.iter().max() {
            assert!(max < first_nt, "input symbol {max} >= first_nt {first_nt}");
            assert!(max != EMPTY, "u32::MAX is reserved");
        }
        let min_count = self.config.min_count.max(2);
        let max_rules = self
            .config
            .max_rules
            .unwrap_or(usize::MAX)
            .min((u32::MAX - first_nt) as usize);

        let mut st = State::new_in(input, protected, scratch);
        st.count_initial_pairs();
        let mut rule_ptr: Vec<u32> = vec![0];
        let mut rule_syms: Vec<u32> = Vec::new();
        let mut positions: Vec<usize> = Vec::new();
        let mut next_positions: Vec<usize> = Vec::new();
        while rule_ptr.len() - 1 < max_rules {
            let Some((a, b)) = st.pop_best(min_count) else {
                break;
            };
            let n_sym = first_nt + (rule_ptr.len() - 1) as u32;
            positions.clear();
            let replaced = st.replace_all_rec(a, b, n_sym, Some(&mut positions));
            if replaced == 0 {
                continue;
            }
            let rhs_start = rule_syms.len();
            rule_syms.push(a);
            rule_syms.push(b);
            // Greedy maximal-repeat extension. Safe only when the
            // extension consumes *every* occurrence of the fresh
            // nonterminal — otherwise occurrences would expand to
            // different strings — so each step requires the exact pair
            // count to equal the occurrence count (`replaced` is the
            // invariant occurrence count: every extension step consumes
            // all occurrences, so it never changes). `c == n_sym` (runs
            // of the nonterminal itself) is skipped: those pairs self-
            // overlap and are better left to a later ordinary rule.
            if replaced >= 2 {
                loop {
                    let p = positions[0];
                    let right = st.next_filled(p).map(|r| st.sym[r]).filter(|&c| {
                        c != n_sym
                            && !st.is_protected(c)
                            && st
                                .pairs
                                .get(&pack(n_sym, c))
                                .is_some_and(|rec| rec.count as usize == replaced)
                    });
                    if let Some(c) = right {
                        next_positions.clear();
                        let k = st.replace_all_rec(n_sym, c, n_sym, Some(&mut next_positions));
                        assert_eq!(k, replaced, "right extension must consume every occurrence");
                        std::mem::swap(&mut positions, &mut next_positions);
                        rule_syms.push(c);
                        continue;
                    }
                    let left = st.prev_filled(p).map(|l| st.sym[l]).filter(|&c| {
                        c != n_sym
                            && !st.is_protected(c)
                            && st
                                .pairs
                                .get(&pack(c, n_sym))
                                .is_some_and(|rec| rec.count as usize == replaced)
                    });
                    if let Some(c) = left {
                        next_positions.clear();
                        let k = st.replace_all_rec(c, n_sym, n_sym, Some(&mut next_positions));
                        assert_eq!(k, replaced, "left extension must consume every occurrence");
                        std::mem::swap(&mut positions, &mut next_positions);
                        rule_syms.insert(rhs_start, c);
                        continue;
                    }
                    break;
                }
            }
            rule_ptr.push(rule_syms.len() as u32);
        }
        let seq = st.finish(scratch);
        MrSlp::new(first_nt, rule_ptr, rule_syms, seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(input: &[u32], first_nt: u32, protected: Option<u32>) -> Slp {
        let slp = RePair::new().compress(input, first_nt, protected);
        assert_eq!(slp.expand(), input, "expansion must equal input");
        assert!(slp.check_invariants().is_ok());
        if let Some(p) = protected {
            assert!(
                slp.rules_avoid_terminal(p),
                "protected symbol leaked into a rule"
            );
        }
        slp
    }

    #[test]
    fn empty_input() {
        let slp = roundtrip(&[], 10, None);
        assert_eq!(slp.num_rules(), 0);
    }

    #[test]
    fn single_symbol() {
        let slp = roundtrip(&[5], 10, None);
        assert_eq!(slp.num_rules(), 0);
    }

    #[test]
    fn no_repeats_no_rules() {
        let slp = roundtrip(&[1, 2, 3, 4, 5], 10, None);
        assert_eq!(slp.num_rules(), 0);
        assert_eq!(slp.sequence(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn simple_repeat() {
        // "abab" -> N0=ab, C = N0 N0
        let slp = roundtrip(&[1, 2, 1, 2], 10, None);
        assert_eq!(slp.num_rules(), 1);
        assert_eq!(slp.rules()[0], (1, 2));
        assert_eq!(slp.sequence(), &[10, 10]);
    }

    #[test]
    fn abracadabra_style() {
        // Classic: repeated phrase gets hierarchical rules.
        let input: Vec<u32> = [1, 2, 3, 1, 4, 1, 5, 1, 4, 1, 2, 3, 1, 4, 1, 5, 1, 4].to_vec();
        let slp = roundtrip(&input, 100, None);
        assert!(slp.num_rules() >= 2);
        assert!(slp.grammar_size() < input.len() + 2);
    }

    #[test]
    fn run_of_equal_symbols() {
        for len in [2usize, 3, 4, 5, 7, 8, 15, 16, 33, 100] {
            let input = vec![7u32; len];
            let slp = roundtrip(&input, 10, None);
            // log-depth hierarchy: grammar much smaller than the run.
            if len >= 8 {
                assert!(
                    slp.grammar_size() <= 4 * (usize::BITS - len.leading_zeros()) as usize,
                    "len {len}: size {}",
                    slp.grammar_size()
                );
            }
        }
    }

    #[test]
    fn alternating_overlap() {
        let input: Vec<u32> = (0..64).map(|i| (i % 2) as u32 + 1).collect();
        roundtrip(&input, 10, None);
    }

    #[test]
    fn protected_symbol_never_in_rules() {
        // Rows of repeated content separated by 0.
        let mut input = Vec::new();
        for _ in 0..50 {
            input.extend_from_slice(&[3, 4, 5, 6]);
            input.push(0);
        }
        let slp = roundtrip(&input, 10, Some(0));
        assert!(slp.num_rules() >= 2);
        // Every nonterminal expansion is separator-free.
        for k in 0..slp.num_rules() {
            let exp = slp.expand_symbol(10 + k as u32);
            assert!(!exp.contains(&0), "rule {k} expands across a separator");
        }
        // Sequence keeps exactly the 50 separators.
        assert_eq!(slp.sequence().iter().filter(|&&s| s == 0).count(), 50);
    }

    #[test]
    fn protected_adjacent_pairs_unaffected() {
        // Pairs straddling the separator must not be formed even when
        // they would be the most frequent.
        let mut input = Vec::new();
        for _ in 0..20 {
            input.push(1);
            input.push(0); // (1,0) and (0,1) are frequent but forbidden
        }
        let slp = roundtrip(&input, 5, Some(0));
        assert_eq!(slp.num_rules(), 0);
    }

    #[test]
    fn repeated_rows_compress_to_single_nonterminals() {
        // 30 identical rows: RePair should reduce each row to one symbol.
        let row = [2u32, 3, 4, 5, 6, 7, 8, 9];
        let mut input = Vec::new();
        for _ in 0..30 {
            input.extend_from_slice(&row);
            input.push(0);
        }
        let slp = roundtrip(&input, 100, Some(0));
        // Final sequence should be close to 30 * (1 symbol + separator).
        assert!(
            slp.sequence().len() <= 30 * 2 + 2,
            "sequence len {}",
            slp.sequence().len()
        );
    }

    #[test]
    fn max_rules_cap_respected() {
        let input: Vec<u32> = (0..1000).map(|i| (i % 4) as u32 + 1).collect();
        let cfg = RePairConfig {
            max_rules: Some(3),
            min_count: 2,
        };
        let slp = RePair::with_config(cfg).compress(&input, 10, None);
        assert!(slp.num_rules() <= 3);
        assert_eq!(slp.expand(), input);
    }

    #[test]
    fn min_count_threshold() {
        // Pair (1,2) occurs twice; with min_count 3 nothing is replaced.
        let input = vec![1, 2, 9, 1, 2];
        let cfg = RePairConfig {
            max_rules: None,
            min_count: 3,
        };
        let slp = RePair::with_config(cfg).compress(&input, 10, None);
        assert_eq!(slp.num_rules(), 0);
        assert_eq!(slp.expand(), input);
    }

    #[test]
    #[should_panic(expected = ">= first_nt")]
    fn input_symbol_above_first_nt_rejected() {
        RePair::new().compress(&[5, 20], 10, None);
    }

    #[test]
    fn pseudorandom_roundtrip_small_alphabet() {
        let mut x = 0x12345678u64;
        let input: Vec<u32> = (0..5000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((x >> 33) % 8) as u32
            })
            .collect();
        let slp = roundtrip(&input, 100, None);
        assert!(slp.grammar_size() < input.len());
    }

    #[test]
    fn pseudorandom_roundtrip_with_separators() {
        let mut x = 0xDEADBEEFu64;
        let mut input = Vec::new();
        for _ in 0..400 {
            let row_len = (x >> 60) as usize % 6;
            for _ in 0..row_len {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                input.push(((x >> 33) % 10 + 1) as u32);
            }
            input.push(0);
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        roundtrip(&input, 100, Some(0));
    }

    #[test]
    fn highly_repetitive_reaches_log_size() {
        // (abcdefgh)^128: grammar should be O(log) of the input.
        let mut input = Vec::new();
        for _ in 0..128 {
            input.extend_from_slice(&[1, 2, 3, 4, 5, 6, 7, 8]);
        }
        let slp = roundtrip(&input, 100, None);
        assert!(slp.grammar_size() <= 64, "size {}", slp.grammar_size());
    }

    #[test]
    fn adjacent_separators_ok() {
        // Empty rows: consecutive protected symbols.
        let input = vec![0, 0, 1, 2, 0, 1, 2, 0, 0];
        roundtrip(&input, 10, Some(0));
    }

    fn mr_roundtrip(input: &[u32], first_nt: u32, protected: Option<u32>) -> MrSlp {
        let mr = RePair::new().compress_mr(input, first_nt, protected);
        assert_eq!(mr.expand(), input, "MR expansion must equal input");
        assert!(mr.check_invariants().is_ok());
        if let Some(p) = protected {
            assert!(
                mr.rules_avoid_terminal(p),
                "protected symbol leaked into an MR rule"
            );
        }
        mr
    }

    #[test]
    fn mr_simple_repeat_matches_repair() {
        let mr = mr_roundtrip(&[1, 2, 1, 2], 10, None);
        assert_eq!(mr.num_rules(), 1);
        assert_eq!(mr.rule(0), &[1, 2]);
        assert_eq!(mr.sequence(), &[10, 10]);
    }

    #[test]
    fn mr_consumes_maximal_repeats_into_one_rule() {
        // (1 2 3 4)^2: RePair needs a chain of three rules; MR-RePair
        // extends the founding pair to the whole repeat.
        let input = [1u32, 2, 3, 4, 1, 2, 3, 4];
        let mr = mr_roundtrip(&input, 10, None);
        assert_eq!(mr.num_rules(), 1, "rules: {:?}", mr.rule_syms());
        assert_eq!(mr.rule(0), &[1, 2, 3, 4]);
        assert_eq!(mr.sequence(), &[10, 10]);
        let slp = RePair::new().compress(&input, 10, None);
        assert_eq!(slp.num_rules(), 3);
        // Three repeats leave a top-level (X, X) pair that may become one
        // extra binary rule — still strictly fewer rules than RePair.
        let input3 = [1u32, 2, 3, 4, 1, 2, 3, 4, 1, 2, 3, 4];
        let mr3 = mr_roundtrip(&input3, 10, None);
        let slp3 = RePair::new().compress(&input3, 10, None);
        assert!(mr3.num_rules() < slp3.num_rules());
        assert_eq!(mr3.rule(0), &[1, 2, 3, 4]);
    }

    #[test]
    fn mr_never_needs_more_rules_on_repetitive_rows() {
        let row = [2u32, 3, 4, 5, 6, 7, 8, 9];
        let mut input = Vec::new();
        for _ in 0..30 {
            input.extend_from_slice(&row);
            input.push(0);
        }
        let mr = mr_roundtrip(&input, 100, Some(0));
        let slp = RePair::new().compress(&input, 100, Some(0));
        assert!(
            mr.num_rules() < slp.num_rules(),
            "MR {} vs RePair {}",
            mr.num_rules(),
            slp.num_rules()
        );
        // One wide rule covering the whole row, used once per row.
        assert!(mr.sequence().len() <= 30 * 2 + 2);
    }

    #[test]
    fn mr_protected_symbol_never_extends_across_rows() {
        let mut input = Vec::new();
        for _ in 0..40 {
            input.extend_from_slice(&[3, 4, 5, 6]);
            input.push(0);
        }
        let mr = mr_roundtrip(&input, 10, Some(0));
        assert_eq!(mr.sequence().iter().filter(|&&s| s == 0).count(), 40);
    }

    #[test]
    fn mr_runs_of_equal_symbols_roundtrip() {
        for len in [2usize, 3, 5, 8, 16, 33, 100] {
            mr_roundtrip(&vec![7u32; len], 10, None);
        }
    }

    #[test]
    fn mr_pseudorandom_roundtrip_with_separators() {
        let mut x = 0xFEED5EEDu64;
        let mut input = Vec::new();
        for _ in 0..400 {
            let row_len = (x >> 60) as usize % 6;
            for _ in 0..row_len {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                input.push(((x >> 33) % 10 + 1) as u32);
            }
            input.push(0);
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
        }
        mr_roundtrip(&input, 100, Some(0));
    }

    #[test]
    fn mr_respects_max_rules_and_min_count() {
        let input: Vec<u32> = (0..1000).map(|i| (i % 4) as u32 + 1).collect();
        let cfg = RePairConfig {
            max_rules: Some(2),
            min_count: 2,
        };
        let mr = RePair::with_config(cfg).compress_mr(&input, 10, None);
        assert!(mr.num_rules() <= 2);
        assert_eq!(mr.expand(), input);

        let sparse = vec![1, 2, 9, 1, 2];
        let cfg = RePairConfig {
            max_rules: None,
            min_count: 3,
        };
        let mr = RePair::with_config(cfg).compress_mr(&sparse, 10, None);
        assert_eq!(mr.num_rules(), 0);
        assert_eq!(mr.expand(), sparse);
    }

    #[test]
    fn mr_scratch_reuse_matches_fresh_compression() {
        let mut x = 0xABCDEFu64;
        let inputs: Vec<Vec<u32>> = (0..6)
            .map(|round| {
                (0..150 + round * 83)
                    .map(|_| {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((x >> 33) % 7) as u32
                    })
                    .collect()
            })
            .collect();
        let mut scratch = RePairScratch::new();
        for input in &inputs {
            let with_scratch =
                RePair::new().compress_mr_with_scratch(input, 100, Some(0), &mut scratch);
            let fresh = RePair::new().compress_mr(input, 100, Some(0));
            assert_eq!(with_scratch, fresh);
            assert_eq!(with_scratch.expand(), *input);
        }
        // The same arena still produces unchanged RePair output.
        let slp_scratch =
            RePair::new().compress_with_scratch(&inputs[0], 100, Some(0), &mut scratch);
        let slp_fresh = RePair::new().compress(&inputs[0], 100, Some(0));
        assert_eq!(slp_scratch.rules(), slp_fresh.rules());
        assert_eq!(slp_scratch.sequence(), slp_fresh.sequence());
    }

    #[test]
    fn scratch_reuse_matches_fresh_compression_and_stops_growing() {
        // Several different inputs through ONE scratch arena: every
        // grammar must equal the fresh-allocation compressor's output,
        // and after the largest input has been seen the arena must stop
        // growing.
        let mut x = 0xC0FFEEu64;
        let inputs: Vec<Vec<u32>> = (0..8)
            .map(|round| {
                (0..200 + round * 57)
                    .map(|_| {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((x >> 33) % 9) as u32
                    })
                    .collect()
            })
            .collect();
        let mut scratch = RePairScratch::new();
        for input in &inputs {
            let with_scratch =
                RePair::new().compress_with_scratch(input, 100, Some(0), &mut scratch);
            let fresh = RePair::new().compress(input, 100, Some(0));
            assert_eq!(with_scratch.rules(), fresh.rules());
            assert_eq!(with_scratch.sequence(), fresh.sequence());
            assert_eq!(with_scratch.expand(), *input);
        }
        let plateau = scratch.retained_bytes();
        for input in &inputs {
            let _ = RePair::new().compress_with_scratch(input, 100, Some(0), &mut scratch);
        }
        assert_eq!(
            scratch.retained_bytes(),
            plateau,
            "arena must reuse capacity on repeat inputs"
        );
    }
}
