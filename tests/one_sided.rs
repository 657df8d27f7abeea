//! One-sided (MPI-2-style) windows across the full stack: put/get from
//! multiple origins, window lifetime, and interaction with the rest of the
//! traffic.

use simmem::KernelConfig;
use vialock::StrategyKind;

use msg::{Comm, MsgConfig};

fn comm(n: usize) -> Comm {
    Comm::new(
        n,
        2,
        KernelConfig::large(),
        StrategyKind::KiobufReliable,
        MsgConfig::tiny(),
    )
    .unwrap()
}

#[test]
fn many_origins_share_one_window() {
    let mut c = comm(4);
    let win_len = 16 * 4096;
    let win_buf = c.alloc_buffer(0, win_len).unwrap();
    let w = c.expose_window(0, win_buf, win_len).unwrap();

    // Ranks 1..3 each put their block at a disjoint offset.
    for r in 1..4usize {
        let src = c.alloc_buffer(r, 4096).unwrap();
        c.fill_buffer(r, src, &[r as u8 * 10; 4096]).unwrap();
        c.put(r, src, 4096, &w, r * 4096).unwrap();
    }
    // The owner sees all three blocks.
    for r in 1..4usize {
        let mut out = vec![0u8; 4096];
        c.read_buffer(0, win_buf + (r * 4096) as u64, &mut out)
            .unwrap();
        assert!(out.iter().all(|&b| b == r as u8 * 10), "rank {r}'s block");
    }
    // And every rank can get any block back.
    for r in 1..4usize {
        let dst = c.alloc_buffer(r, 4096).unwrap();
        let other = (r % 3) + 1;
        c.get(r, dst, 4096, &w, other * 4096).unwrap();
        let mut out = vec![0u8; 4096];
        c.read_buffer(r, dst, &mut out).unwrap();
        assert!(out.iter().all(|&b| b == other as u8 * 10));
    }
    c.close_window(w).unwrap();
}

#[test]
fn window_ops_interleave_with_two_sided_traffic() {
    let mut c = comm(2);
    let win_buf = c.alloc_buffer(1, 8192).unwrap();
    let w = c.expose_window(1, win_buf, 8192).unwrap();

    // Interleave: put, send/recv, get, send/recv.
    let src = c.alloc_buffer(0, 256).unwrap();
    c.fill_buffer(0, src, &[0xABu8; 256]).unwrap();
    c.put(0, src, 256, &w, 0).unwrap();

    let m = c.alloc_buffer(0, 64).unwrap();
    let r = c.alloc_buffer(1, 64).unwrap();
    c.fill_buffer(0, m, b"two-sided").unwrap();
    let h = c.send(0, 1, 5, m, 9).unwrap();
    c.recv(1, 0, 5, r, 64).unwrap();
    c.wait(h).unwrap();

    let back = c.alloc_buffer(0, 256).unwrap();
    c.get(0, back, 256, &w, 0).unwrap();
    let mut out = vec![0u8; 256];
    c.read_buffer(0, back, &mut out).unwrap();
    assert!(out.iter().all(|&b| b == 0xAB));

    let mut out = vec![0u8; 9];
    c.read_buffer(1, r, &mut out).unwrap();
    assert_eq!(&out, b"two-sided");
    c.close_window(w).unwrap();
}

#[test]
fn closed_window_refuses_access() {
    let mut c = comm(2);
    let win_buf = c.alloc_buffer(1, 4096).unwrap();
    let w = c.expose_window(1, win_buf, 4096).unwrap();
    c.close_window(w).unwrap();
    let src = c.alloc_buffer(0, 64).unwrap();
    assert!(
        c.put(0, src, 64, &w, 0).is_err(),
        "stale window handle refused"
    );
}
