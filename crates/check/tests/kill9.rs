//! A real crash: a child process runs a seeded insert / remove / commit
//! script on a [`FileBackend`] B+-tree and is `SIGKILL`ed at seeded
//! instants; the parent reopens the directory and holds recovery to the
//! contract of DESIGN §9.
//!
//! The in-process sweeps (`durability.rs`) kill the store *between*
//! journal appends, where the fault plan is consulted. A signal lands
//! anywhere: inside a `write`, between a `write` and its `fsync`, inside
//! the allocator. What must hold regardless, per [`FsyncPolicy`]:
//!
//! * every policy — the recovered tree is exactly the script's state at
//!   the recovered commit sequence: always *some* sealed prefix of the
//!   script, never a torn window;
//! * `always` / `on-commit` — that sequence is at least the last one the
//!   child acknowledged (it reports a commit only after `try_commit`
//!   returned).
//!
//! Only public API is used — open, insert, remove, commit, reopen — so
//! the test holds for whatever the log holds.
//!
//! The test binary re-executes itself as the child: `kill9_child` is an
//! ignored test that finds its directory and policy in an argument the
//! parent appends (to libtest it is one more name filter, matching
//! nothing) and returns at once without it.

use mobidx_bptree::{BPlusTree, TreeConfig};
use mobidx_check::{mix, SplitMix};
use mobidx_pager::{FileBackend, FsyncPolicy, ScratchDir};
use std::collections::BTreeSet;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Duration;

/// Kill instants per policy.
const INSTANTS: u64 = 24;
/// Entries the first window loads: several 341-entry leaves under a
/// branch root, so later windows dirty many pages and split some.
const LOAD: usize = 1_500;
/// Removals plus insertions of every later window.
const WINDOW_OPS: usize = 24;
/// Windows in the script; a child nobody kills ends after the last.
/// Far more than any instant below waits for, whatever the policy.
const WINDOWS: u64 = 1_000;
/// Key domain: duplicate keys are common, leaves hold runs of them.
const KEYS: u64 = 512;
/// The script's seed — one script, the instant is all that varies.
const SCRIPT_SEED: u64 = 0x6B31_6C39;
/// A kill waits for at most this many acknowledged commits…
const MAX_ACKS: u64 = 40;
/// …and then this much longer, to land inside the next window.
const MAX_DELAY_US: u64 = 3_000;
/// Prefix of the argument that carries `<policy>,<directory>` to the child.
const CHILD_ARG: &str = "kill9-child=";
/// Prefix of the line the child writes after each sealed window.
const ACK: &str = "ack ";

type Entry = (u64, u64);

/// The script, one commit window at a time.
struct Script {
    rng: SplitMix,
    /// The tree's contents once every window handed out so far is applied.
    live: BTreeSet<Entry>,
    next_val: u64,
}

impl Script {
    fn new() -> Self {
        Self {
            rng: SplitMix::new(SCRIPT_SEED),
            live: BTreeSet::new(),
            next_val: 0,
        }
    }

    /// The next window as `(removes, inserts)`, both sorted, the removes
    /// drawn from what was live before it.
    fn next_window(&mut self) -> (Vec<Entry>, Vec<Entry>) {
        let ops = if self.live.is_empty() {
            LOAD
        } else {
            WINDOW_OPS
        };
        let (mut removes, mut inserts) = (Vec::new(), Vec::new());
        for _ in 0..ops {
            if self.live.is_empty() || self.rng.below(3) < 2 {
                inserts.push((self.rng.below(KEYS), self.next_val));
                self.next_val += 1;
            } else {
                let n = self.rng.below(self.live.len() as u64) as usize;
                let victim = *self.live.iter().nth(n).expect("indexed live entry");
                self.live.remove(&victim);
                removes.push(victim);
            }
        }
        removes.sort_unstable();
        inserts.sort_unstable();
        self.live.extend(inserts.iter().copied());
        (removes, inserts)
    }

    /// What the commit with sequence number `seq` sealed.
    fn state_at(seq: u64) -> Vec<Entry> {
        let mut script = Self::new();
        for _ in 0..seq {
            let _ = script.next_window();
        }
        script.live.into_iter().collect()
    }
}

/// The child: runs the script in the directory the parent named and
/// acknowledges every sealed window on stderr (libtest writes its own
/// progress to stdout). Killed somewhere along the way.
#[test]
#[ignore = "the child half of the kill9 tests; they re-execute the binary to run it"]
fn kill9_child() {
    let Some(spec) = std::env::args().find_map(|a| a.strip_prefix(CHILD_ARG).map(str::to_owned))
    else {
        return;
    };
    let (policy, dir) = spec.split_once(',').expect("<policy>,<directory>");
    let policy = FsyncPolicy::parse(policy).expect("a policy name");
    let (backend, image) = FileBackend::open(Path::new(dir), policy).expect("open store dir");
    assert!(image.is_empty(), "the parent hands over a fresh directory");
    let mut tree: BPlusTree<u64, u64> =
        BPlusTree::open_durable(TreeConfig::default(), Box::new(backend), &image)
            .expect("empty image");
    let mut script = Script::new();
    for seq in 1..=WINDOWS {
        let (removes, inserts) = script.next_window();
        if seq % 2 == 0 {
            // The serving tier's path: one grouped apply per window.
            let found = tree.apply_batch(&removes, &inserts);
            assert_eq!(found, removes.len(), "window {seq}");
        } else {
            for &(k, v) in &removes {
                assert!(tree.remove(k, v), "window {seq}: ({k}, {v}) is live");
            }
            for &(k, v) in &inserts {
                tree.insert(k, v);
            }
        }
        tree.try_commit().expect("FileBackend commit");
        eprintln!("{ACK}{seq}");
    }
}

/// Reads one line of the child's stderr: an acknowledgement raises
/// `acked`, anything else (a panic message) is kept in `other`. `false`
/// at end of stream.
fn read_ack(stderr: &mut impl BufRead, acked: &mut u64, other: &mut String) -> bool {
    let mut line = String::new();
    if stderr.read_line(&mut line).expect("child stderr") == 0 {
        return false;
    }
    match line.strip_prefix(ACK).map(|s| s.trim().parse::<u64>()) {
        Some(Ok(seq)) => *acked = seq,
        _ => other.push_str(&line),
    }
    true
}

/// Runs one child under `policy`, kills it at the instant `instant`
/// seeds, reopens the directory and checks the contract. Returns the
/// recovered commit sequence.
fn kill_and_recover(policy: FsyncPolicy, instant: u64) -> u64 {
    let dir = ScratchDir::new(&format!("kill9-{}", policy.name()));
    let mut rng = SplitMix::new(mix(SCRIPT_SEED, instant));
    // A third of the instants fall into start-up and the big first
    // window, the rest into the steady state.
    let after_acks = if instant % 3 == 0 {
        0
    } else {
        rng.below(MAX_ACKS)
    };
    let delay = Duration::from_micros(rng.below(MAX_DELAY_US));

    let exe = std::env::current_exe().expect("the test binary's own path");
    let mut child = Command::new(exe)
        .args(["kill9_child", "--exact", "--ignored", "--nocapture"])
        .arg(format!("{CHILD_ARG}{},{}", policy.name(), dir.display()))
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("re-execute the test binary");
    let mut stderr = BufReader::new(child.stderr.take().expect("piped stderr"));
    let mut acked = 0u64;
    let mut other = String::new();
    while acked < after_acks && read_ack(&mut stderr, &mut acked, &mut other) {}
    std::thread::sleep(delay);
    child.kill().expect("SIGKILL the child");
    let status = child.wait().expect("reap the child");
    // What it acknowledged between our last read and its death.
    while read_ack(&mut stderr, &mut acked, &mut other) {}
    let what = format!(
        "{} instant {instant} (after {after_acks} acks + {delay:?}, {status})",
        policy.name()
    );
    assert!(
        acked == WINDOWS || !status.success(),
        "{what}: the child ended early by itself:\n{other}"
    );
    assert!(
        other.lines().all(|l| !l.contains("panicked")),
        "{what}: the child panicked:\n{other}"
    );

    let (backend, image) = FileBackend::open(&dir, policy).expect("reopen store dir");
    let seq = image.commit_seq;
    assert!(seq <= WINDOWS, "{what}: recovered sequence {seq}");
    let tree: BPlusTree<u64, u64> =
        BPlusTree::open_durable(TreeConfig::default(), Box::new(backend), &image)
            .unwrap_or_else(|| panic!("{what}: the recovered image does not decode"));
    tree.check_invariants(true);
    assert_eq!(
        tree.collect_all(),
        Script::state_at(seq),
        "{what}: recovered tree is not the script's state at sequence {seq} \
         (last acknowledged: {acked})"
    );
    if policy != FsyncPolicy::Never {
        assert!(
            seq >= acked,
            "{what}: recovered sequence {seq} is older than acknowledged {acked}"
        );
    }
    seq
}

fn sweep(policy: FsyncPolicy) {
    let recovered: BTreeSet<u64> = (0..INSTANTS)
        .map(|instant| kill_and_recover(policy, instant))
        .collect();
    assert!(
        recovered.len() >= 8,
        "{}: the kills must land in many different windows, recovered only {recovered:?}",
        policy.name()
    );
    eprintln!("{}: recovered sequences {recovered:?}", policy.name());
}

#[test]
fn kill9_under_fsync_always_recovers_an_acknowledged_sealed_window() {
    sweep(FsyncPolicy::Always);
}

#[test]
fn kill9_under_fsync_on_commit_recovers_an_acknowledged_sealed_window() {
    sweep(FsyncPolicy::OnCommit);
}

#[test]
fn kill9_under_fsync_never_recovers_some_sealed_window() {
    sweep(FsyncPolicy::Never);
}
