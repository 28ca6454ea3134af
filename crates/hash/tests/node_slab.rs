//! Nodes live in their map's slab: every value is dropped exactly once, no
//! slot is handed out again while a reader may still hold its node, and a
//! slab outlives every node it handed out, its map included.
//!
//! One `Arc` is cloned into every value, so its strong count is the number
//! of values not yet dropped. The tests take turns: (b) counts the slab
//! chunks mapped in the whole process, and (d) the process's RSS.
//! `cargo test --release -p rp-hash --test node_slab`

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Barrier, Mutex, MutexGuard, PoisonError};
use std::thread;

use rp_hash::{slab_chunks_mapped, FnvBuildHasher, QsbrReadHandle, RpHashMap};
use rp_rcu::GraceSync;

/// A value: a stamp the test can check, and the shared `Arc`.
type Value = (u64, Arc<()>);
type Map = RpHashMap<u64, Value, FnvBuildHasher>;

const WRITERS: u64 = 4;
const OPS: u64 = 40_000;
const KEYS: u64 = 256;

fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// One writer's storm: every write entry point, and a lookup that holds its
/// node across a yield and finds it unchanged (a slot handed out again
/// under a reader would not be).
fn storm(map: &Map, token: &Arc<()>, writer: u64) {
    let mut rng = 0x9E37_79B9_7F4A_7C15 ^ (writer + 1);
    for _ in 0..OPS {
        let r = xorshift(&mut rng);
        let key = r >> 8 & (KEYS - 1);
        let value = || (r, Arc::clone(token));
        match r % 64 {
            0 => {
                map.retain(|k, _| k % 3 != 0);
            }
            1 if writer == 0 => map.clear(),
            2..=11 => {
                map.rename(&key, (key + 1) & (KEYS - 1));
            }
            12..=23 => {
                map.insert(key, value());
            }
            24..=35 => drop(map.insert_replacing(key, value())),
            36..=45 => {
                map.remove(&key);
            }
            46..=55 => drop(map.remove_cloned(&key)),
            _ => {
                let guard = map.pin();
                if let Some((k, v)) = map.get_key_value(&key, &guard) {
                    let seen = (*k, v.0);
                    thread::yield_now();
                    assert_eq!((*k, v.0), seen, "a node changed under a reader");
                    assert_eq!(seen.0, key);
                }
            }
        }
    }
}

#[test]
fn every_value_is_dropped_exactly_once() {
    let _serial = serial();
    let token = Arc::new(());
    let map = Map::with_buckets_and_hasher(64, FnvBuildHasher);
    let start = Barrier::new(WRITERS as usize + 1);
    let writing = AtomicBool::new(true);
    thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (map, token, start) = (&map, &token, &start);
                s.spawn(move || {
                    start.wait();
                    storm(map, token, w);
                })
            })
            .collect();
        let resizer = s.spawn(|| {
            start.wait();
            let mut toggles = 0;
            while writing.load(Ordering::Relaxed) || toggles == 0 {
                map.expand();
                map.shrink();
                toggles += 1;
            }
        });
        for writer in writers {
            writer.join().unwrap();
        }
        writing.store(false, Ordering::Relaxed);
        resizer.join().unwrap();
    });

    // Through the map: its open batch holds up to 63 retired nodes that
    // no bare barrier frees.
    map.flush_retired();
    let live = map.len();
    println!("{live} live entries, stats {:?}", map.stats());
    assert_eq!(Arc::strong_count(&token), 1 + live, "values dropped");
    assert_eq!(map.to_vec().len(), live);
    map.check_invariants().unwrap();
    drop(map);
    assert_eq!(
        Arc::strong_count(&token),
        1,
        "the map's drop drops the rest"
    );
    GraceSync::global().synchronize_and_reclaim();
}

#[test]
fn a_removed_node_outlives_its_dropped_map_for_an_online_reader() {
    const KEY: u64 = 77;
    let _serial = serial();
    // Maps the other tests dropped have their releases queued: run them.
    GraceSync::global().synchronize_and_reclaim();
    let chunks_before = slab_chunks_mapped();
    let token = Arc::new(());
    let map = Arc::new(Map::with_buckets_and_hasher(64, FnvBuildHasher));
    for key in 0..1024 {
        map.insert(key, (key * 10, Arc::clone(&token)));
    }
    assert_eq!(slab_chunks_mapped(), chunks_before + 1);

    let (looked_up, wait_looked_up) = mpsc::channel();
    let (dropped, wait_dropped) = mpsc::channel();
    let reader = thread::spawn({
        let map = Arc::clone(&map);
        move || {
            let mut handle = QsbrReadHandle::register();
            let value: *const Value = map.get(&KEY, &handle).expect("inserted");
            drop(map);
            looked_up.send(()).unwrap();
            wait_dropped.recv().unwrap();
            // SAFETY: the node was reachable while `handle` was online, and
            // the handle has announced no quiescent state since, so no
            // grace period that could free the node has ended: the node,
            // its value and the chunk it lies in are still there.
            let seen = unsafe { ((*value).0, Arc::as_ptr(&(*value).1) as usize) };
            handle.offline();
            seen
        }
    });

    wait_looked_up.recv().unwrap();
    assert!(map.remove(&KEY));
    drop(Arc::into_inner(map).expect("the reader let go of the map"));
    assert_eq!(
        Arc::strong_count(&token),
        2,
        "the map's drop drops every live value; the removed one waits for the reader"
    );
    dropped.send(()).unwrap();
    let (stamp, shared) = reader.join().unwrap();
    assert_eq!((stamp, shared), (KEY * 10, Arc::as_ptr(&token) as usize));

    GraceSync::global().synchronize_and_reclaim();
    assert_eq!(Arc::strong_count(&token), 1);
    assert_eq!(slab_chunks_mapped(), chunks_before, "the slab is released");
}

#[test]
fn a_million_overwrites_of_1024_keys_stay_in_one_chunk() {
    let _serial = serial();
    let token = Arc::new(());
    let map = Map::with_buckets_and_hasher(1024, FnvBuildHasher);
    for i in 0..1_u64 << 20 {
        map.insert(i % 1024, (i, Arc::clone(&token)));
        // A barrier now and then bounds the slots in flight (1024 live,
        // 8 Ki retired) whatever the reclaim thread's schedule: the slab
        // must reuse what comes back, not map past it.
        if i % (8 << 10) == 0 {
            map.flush_retired();
        }
    }
    let stats = map.stats();
    assert_eq!(stats.replaces, (1 << 20) - 1024);
    assert_eq!(stats.slab_chunks, 1);
    map.flush_retired();
    assert_eq!(Arc::strong_count(&token), 1 + 1024);
}

/// A count of kB from a `/proc/self/status` or `/proc/self/smaps` line.
fn kb(line: &str, field: &str) -> Option<u64> {
    line.strip_prefix(field)?
        .trim()
        .strip_suffix("kB")?
        .trim()
        .parse()
        .ok()
}

fn vm_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    status
        .lines()
        .find_map(|line| kb(line, "VmRSS:"))
        .expect("a VmRSS line")
}

/// `AnonHugePages` of the `/proc/self/smaps` entry whose range holds `addr`.
fn anon_huge_kb_at(addr: usize) -> u64 {
    let smaps = std::fs::read_to_string("/proc/self/smaps").expect("procfs");
    let mut inside = false;
    for line in smaps.lines() {
        let range = line
            .split_once(' ')
            .and_then(|(range, _)| range.split_once('-'));
        let bounds =
            range.map(|(lo, hi)| (usize::from_str_radix(lo, 16), usize::from_str_radix(hi, 16)));
        if let Some((Ok(lo), Ok(hi))) = bounds {
            inside = (lo..hi).contains(&addr);
        } else if let Some(huge) = kb(line, "AnonHugePages:").filter(|_| inside) {
            return huge;
        }
    }
    panic!("no smaps entry holds {addr:#x}");
}

/// Whether this kernel rejects `MADV_COLLAPSE` outright (`EINVAL`: no THP,
/// or Linux before 6.1), probed on a 2 MiB page of a buffer of the test's.
fn collapse_is_rejected() -> bool {
    extern "C" {
        fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
    }
    const MADV_COLLAPSE: i32 = 25;
    const EINVAL: i32 = 22;
    const HUGE: usize = 2 << 20;
    let mut buffer = vec![1_u8; 2 * HUGE];
    let page = buffer.as_ptr().align_offset(HUGE);
    // SAFETY: `page..page + HUGE` lies inside `buffer`, which is 2 * HUGE
    // bytes long and owned here; a collapse changes how those bytes are
    // backed, not what they hold.
    let failed = unsafe { madvise(buffer.as_mut_ptr().add(page).cast(), HUGE, MADV_COLLAPSE) } != 0;
    failed && std::io::Error::last_os_error().raw_os_error() == Some(EINVAL)
}

#[test]
fn full_chunks_and_only_full_chunks_are_huge() {
    /// `u64` nodes per chunk: 32-byte slots behind the header's.
    const PER_CHUNK: u64 = (2 << 20) / 32 - 1;
    type U64Map = RpHashMap<u64, u64, FnvBuildHasher>;
    let _serial = serial();

    let full = U64Map::with_buckets_and_hasher(1 << 16, FnvBuildHasher);
    for key in 0..3 * PER_CHUNK + 1 {
        full.insert(key, key);
    }
    let stats = full.stats();
    println!("{stats:?}");
    assert_eq!(stats.slab_chunks, 4);
    if stats.slab_huge_chunks == 0 && collapse_is_rejected() {
        println!("skipped: this kernel rejects MADV_COLLAPSE (EINVAL)");
        return;
    }
    assert_eq!(
        stats.slab_huge_chunks,
        stats.slab_chunks - 1,
        "every full chunk is collapsed, and the newest is not"
    );
    let guard = full.pin();
    // Key 0 took the first slot of the first chunk.
    let first: *const u64 = full.get(&0, &guard).expect("inserted");
    let huge = anon_huge_kb_at(first as usize);
    println!("the first chunk's smaps entry: AnonHugePages: {huge} kB");
    assert!(huge >= 2048, "a full chunk is one huge page: {huge} kB");
    drop((guard, full));

    let rss = vm_rss_kb();
    let partial = U64Map::with_buckets_and_hasher(1 << 10, FnvBuildHasher);
    for key in 0..PER_CHUNK / 8 {
        partial.insert(key, key);
    }
    let grown = vm_rss_kb().saturating_sub(rss);
    println!("{} nodes in one chunk: VmRSS +{grown} kB", partial.len());
    assert_eq!(partial.stats().slab_huge_chunks, 0);
    assert!(
        grown < 1024,
        "a partly filled chunk is resident only where written: VmRSS +{grown} kB"
    );
}
