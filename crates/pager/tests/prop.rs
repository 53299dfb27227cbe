//! Property tests: the page store's I/O accounting must match a
//! reference model of an LRU buffer over a flat page array.

use mobidx_pager::PageStore;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Allocate(u8),
    Read(usize),
    Write(usize, u8),
    FreeNth(usize),
    ClearBuffer,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => any::<u8>().prop_map(Op::Allocate),
        4 => (0usize..64).prop_map(Op::Read),
        3 => ((0usize..64), any::<u8>()).prop_map(|(i, v)| Op::Write(i, v)),
        1 => (0usize..64).prop_map(Op::FreeNth),
        1 => Just(Op::ClearBuffer),
    ]
}

/// Reference model: contents + an LRU list of (page, dirty).
struct Model {
    contents: Vec<Option<u8>>,
    lru: Vec<(usize, bool)>, // index 0 = least recently used
    cap: usize,
    reads: u64,
    writes: u64,
}

impl Model {
    fn touch(&mut self, page: usize, dirty: bool) {
        if let Some(pos) = self.lru.iter().position(|&(p, _)| p == page) {
            let (_, d) = self.lru.remove(pos);
            self.lru.push((page, d || dirty));
            return;
        }
        self.reads += 1;
        if self.lru.len() == self.cap {
            let (_, was_dirty) = self.lru.remove(0);
            if was_dirty {
                self.writes += 1;
            }
        }
        self.lru.push((page, dirty));
    }

    fn insert_fresh(&mut self, page: usize) {
        // Allocation: enters the buffer dirty without a read.
        if self.lru.len() == self.cap {
            let (_, was_dirty) = self.lru.remove(0);
            if was_dirty {
                self.writes += 1;
            }
        }
        self.lru.push((page, true));
    }

    fn remove(&mut self, page: usize) {
        if let Some(pos) = self.lru.iter().position(|&(p, _)| p == page) {
            self.lru.remove(pos); // freed pages owe no write-back
        }
    }

    fn clear(&mut self) {
        for (_, dirty) in self.lru.drain(..) {
            if dirty {
                self.writes += 1;
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn io_counts_match_reference_model(cap in 1usize..6,
                                       ops in prop::collection::vec(op_strategy(), 1..200)) {
        let mut store: PageStore<u8> = PageStore::new(cap);
        let mut model = Model {
            contents: Vec::new(),
            lru: Vec::new(),
            cap,
            reads: 0,
            writes: 0,
        };
        // Live page ids, parallel between store and model.
        let mut live: Vec<(mobidx_pager::PageId, usize)> = Vec::new();
        let mut next_model_page = 0usize;

        for op in ops {
            match op {
                Op::Allocate(v) => {
                    let id = store.allocate(v);
                    let mp = next_model_page;
                    next_model_page += 1;
                    if model.contents.len() <= mp {
                        model.contents.resize(mp + 1, None);
                    }
                    model.contents[mp] = Some(v);
                    model.insert_fresh(mp);
                    live.push((id, mp));
                }
                Op::Read(i) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (id, mp) = live[i % live.len()];
                    let got = *store.read(id);
                    model.touch(mp, false);
                    prop_assert_eq!(Some(got), model.contents[mp]);
                }
                Op::Write(i, v) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (id, mp) = live[i % live.len()];
                    store.write(id, |slot| *slot = v);
                    model.touch(mp, true);
                    model.contents[mp] = Some(v);
                }
                Op::FreeNth(i) => {
                    if live.is_empty() {
                        continue;
                    }
                    let (id, mp) = live.swap_remove(i % live.len());
                    let v = store.try_free(id).unwrap();
                    prop_assert_eq!(Some(v), model.contents[mp]);
                    model.contents[mp] = None;
                    model.remove(mp);
                }
                Op::ClearBuffer => {
                    store.clear_buffer();
                    model.clear();
                }
            }
            prop_assert_eq!(store.stats().reads(), model.reads, "read count diverged");
            prop_assert_eq!(store.stats().writes(), model.writes, "write count diverged");
        }
        prop_assert_eq!(store.live_pages() as usize, live.len());
    }
}
