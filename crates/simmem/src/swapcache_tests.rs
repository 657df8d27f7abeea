//! Tests for the 2.4-style swap cache: a refcount-referenced page that gets
//! written out must come back as the *same* frame, keeping driver-held
//! physical addresses coherent — the kernel evolution the paper's kiobuf
//! mechanism builds on.

#![cfg(test)]

use crate::{prot, Capabilities, Kernel, KernelConfig, PAGE_SIZE};

fn tight(swap_cache: bool) -> Kernel {
    Kernel::new(KernelConfig {
        nframes: 64,
        reserved_frames: 4,
        swap_slots: 1024,
        default_rlimit_memlock: None,
        swap_cache,
    })
}

fn pressure(k: &mut Kernel, pages: usize) {
    let hog = k.spawn_process(Capabilities::default());
    let hbuf = k
        .mmap_anon(hog, pages * PAGE_SIZE, prot::READ | prot::WRITE)
        .unwrap();
    for i in 0..pages {
        if k.write_user(hog, hbuf + (i * PAGE_SIZE) as u64, &[1u8; 8])
            .is_err()
        {
            break;
        }
    }
}

#[test]
fn pinned_page_comes_back_as_the_same_frame() {
    let mut k = tight(true);
    let pid = k.spawn_process(Capabilities::default());
    let a = k
        .mmap_anon(pid, PAGE_SIZE, prot::READ | prot::WRITE)
        .unwrap();
    k.write_user(pid, a, b"cached").unwrap();
    let f0 = k.frame_of(pid, a).unwrap().unwrap();
    k.raw_get_page(f0); // refcount pin (2.4 drivers relied on this + cache)

    pressure(&mut k, 80);
    assert!(k.frame_of(pid, a).unwrap().is_none(), "page was evicted");
    assert!(k.mm_stats().swap_cache_adds > 0);
    assert!(k.swap_cache_len() > 0);

    // Refault: same frame, data intact, swap-cache hit recorded.
    let mut out = [0u8; 6];
    k.read_user(pid, a, &mut out).unwrap();
    assert_eq!(&out, b"cached");
    assert_eq!(
        k.frame_of(pid, a).unwrap(),
        Some(f0),
        "swap cache reunified the frame"
    );
    assert!(k.mm_stats().swap_cache_hits >= 1);
    assert_eq!(
        k.count_orphaned_frames(),
        0,
        "no orphans under 2.4 semantics"
    );
    k.raw_put_page(f0).unwrap();
}

#[test]
fn dma_write_during_swapout_window_is_preserved() {
    // The coherence property that makes the map/lock gap benign on 2.4:
    // DMA into the pinned frame while the page is swapped out is visible
    // after the refault.
    let mut k = tight(true);
    let pid = k.spawn_process(Capabilities::default());
    let a = k
        .mmap_anon(pid, PAGE_SIZE, prot::READ | prot::WRITE)
        .unwrap();
    k.write_user(pid, a, b"old").unwrap();
    let f0 = k.frame_of(pid, a).unwrap().unwrap();
    k.raw_get_page(f0);

    pressure(&mut k, 80);
    assert!(k.frame_of(pid, a).unwrap().is_none());

    // Device writes into the pinned frame while the PTE points at swap.
    k.dma_write(f0, 0, b"new").unwrap();

    let mut out = [0u8; 3];
    k.read_user(pid, a, &mut out).unwrap();
    assert_eq!(&out, b"new", "refault re-mapped the DMA-written frame");
    k.raw_put_page(f0).unwrap();
}

#[test]
fn without_cache_the_same_sequence_loses_the_write() {
    let mut k = tight(false);
    let pid = k.spawn_process(Capabilities::default());
    let a = k
        .mmap_anon(pid, PAGE_SIZE, prot::READ | prot::WRITE)
        .unwrap();
    k.write_user(pid, a, b"old").unwrap();
    let f0 = k.frame_of(pid, a).unwrap().unwrap();
    k.raw_get_page(f0);

    pressure(&mut k, 80);
    assert!(k.frame_of(pid, a).unwrap().is_none());
    k.dma_write(f0, 0, b"new").unwrap();

    let mut out = [0u8; 3];
    k.read_user(pid, a, &mut out).unwrap();
    assert_eq!(&out, b"old", "2.2 semantics: DMA landed in the orphan");
    k.raw_put_page(f0).unwrap();
}

#[test]
fn unpinned_pages_never_enter_the_cache() {
    let mut k = tight(true);
    let pid = k.spawn_process(Capabilities::default());
    let a = k
        .mmap_anon(pid, 4 * PAGE_SIZE, prot::READ | prot::WRITE)
        .unwrap();
    k.write_user(pid, a, &[9u8; 4 * PAGE_SIZE]).unwrap();
    pressure(&mut k, 80);
    assert_eq!(k.swap_cache_len(), 0, "count==1 pages are freed outright");
    // Data still round-trips through the swap device.
    let mut out = vec![0u8; 4 * PAGE_SIZE];
    k.read_user(pid, a, &mut out).unwrap();
    assert!(out.iter().all(|&b| b == 9));
}

#[test]
fn dropping_the_pin_empties_the_cache() {
    let mut k = tight(true);
    let pid = k.spawn_process(Capabilities::default());
    let a = k
        .mmap_anon(pid, PAGE_SIZE, prot::READ | prot::WRITE)
        .unwrap();
    k.write_user(pid, a, b"x").unwrap();
    let f0 = k.frame_of(pid, a).unwrap().unwrap();
    k.raw_get_page(f0);
    pressure(&mut k, 80);
    assert_eq!(k.swap_cache_len(), 1);
    // Last reference gone: frame freed, cache purged, slot copy remains
    // authoritative for the next fault.
    k.raw_put_page(f0).unwrap();
    assert_eq!(k.swap_cache_len(), 0);
    let mut out = [0u8; 1];
    k.read_user(pid, a, &mut out).unwrap();
    assert_eq!(&out, b"x", "slot copy still serves the refault");
}

#[test]
fn exit_with_cached_pages_is_clean() {
    let mut k = tight(true);
    let pid = k.spawn_process(Capabilities::default());
    let a = k
        .mmap_anon(pid, 2 * PAGE_SIZE, prot::READ | prot::WRITE)
        .unwrap();
    k.write_user(pid, a, &[5u8; 2 * PAGE_SIZE]).unwrap();
    let frames: Vec<_> = k
        .frames_of_range(pid, a, 2 * PAGE_SIZE)
        .unwrap()
        .into_iter()
        .flatten()
        .collect();
    for &f in &frames {
        k.raw_get_page(f);
    }
    pressure(&mut k, 80);
    k.exit_process(pid).unwrap();
    assert_eq!(k.swap_cache_len(), 0, "exit purged the cache entries");
    for &f in &frames {
        k.raw_put_page(f).unwrap();
    }
    assert_eq!(k.count_orphaned_frames(), 0);
}

#[test]
fn frame_evicted_through_three_mappings_leaves_no_stale_entry() {
    // A frame mapped by a process and two fork children is evicted once per
    // mapping. Each eviction used to overwrite `swap_slot`, so freeing the
    // frame purged only the last slot's cache entry; the first one stayed,
    // and a later fault on that slot re-mapped a frame that had gone back
    // to the free list — another process's memory.
    let mut k = tight(true);
    let parent = k.spawn_process(Capabilities::default());
    let a = k
        .mmap_anon(parent, PAGE_SIZE, prot::READ | prot::WRITE)
        .unwrap();
    k.write_user(parent, a, b"shared-page").unwrap();
    let children = [k.fork(parent).unwrap(), k.fork(parent).unwrap()];
    let shared = k.frame_of(parent, a).unwrap().unwrap();
    assert_eq!(k.page_descriptor(shared).count(), 3);

    let hog = k.spawn_process(Capabilities::default());
    let hbuf = k
        .mmap_anon(hog, 120 * PAGE_SIZE, prot::READ | prot::WRITE)
        .unwrap();
    for i in 0..120 {
        k.write_user(hog, hbuf + (i * PAGE_SIZE) as u64, &[0xEE; 16])
            .unwrap();
    }
    for pid in [parent, children[0], children[1]] {
        assert!(
            k.frame_of(pid, a).unwrap().is_none(),
            "evicted from {pid:?}"
        );
    }
    k.check_invariants().unwrap();
    assert_eq!(k.swap_cache_len(), 0, "the frame was freed: nothing cached");

    for pid in [parent, children[0], children[1]] {
        let mut out = [0u8; 11];
        k.read_user(pid, a, &mut out).unwrap();
        assert_eq!(&out, b"shared-page", "{pid:?} reads its own page back");
    }
    k.check_invariants().unwrap();
}
