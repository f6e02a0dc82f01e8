//! Quickstart: the multiword LL/SC object in five minutes.
//!
//! Run with: `cargo run --example quickstart`
//!
//! Demonstrates the Figure 1 semantics — LL, SC, VL — on a 4-word object
//! shared by 3 processes, then the canonical read-modify-write loop from
//! the paper's introduction, and finally what the instrumentation
//! counters expose.

use mwllsc::MwLlSc;

fn main() {
    // A 4-word shared variable for 3 processes, initially [1, 2, 3, 4].
    // `N` is fixed at construction; each process claims its own handle.
    let obj = MwLlSc::new(3, 4, &[1, 2, 3, 4]);
    let mut handles = obj.handles();
    let mut h2 = handles.pop().expect("handle for process 2");
    let mut h1 = handles.pop().expect("handle for process 1");
    let mut h0 = handles.pop().expect("handle for process 0");

    // —— LL / SC: atomic multiword update ————————————————————————————
    let mut val = [0u64; 4];
    h0.ll(&mut val);
    println!("p0 LL -> {val:?}");
    val[0] += 100;
    val[3] = 99;
    assert!(h0.sc(&val), "no interference: SC succeeds");
    println!("p0 SC [101, 2, 3, 99] -> success");

    // —— SC fails when someone else committed first ————————————————————
    h1.ll(&mut val); // p1 links
    h2.ll(&mut val); // p2 links to the same value
    assert!(h2.sc(&[0, 0, 0, 0]), "p2 wins");
    assert!(!h1.sc(&[7, 7, 7, 7]), "p1 loses: p2's SC broke the link");
    println!("p2 SC wins, p1 SC correctly fails");

    // —— VL: validate without writing ——————————————————————————————
    h1.ll(&mut val);
    assert!(h1.vl(), "nothing changed since p1's LL");
    h2.ll(&mut val);
    assert!(h2.sc(&[5, 5, 5, 5]));
    assert!(!h1.vl(), "p2's successful SC invalidates p1's link");
    println!("VL tracks interference correctly");

    // —— The paper's intro pattern: any RMW in a short LL/SC loop ————————
    // fetch&add 1 to word 0, atomically with a checksum in word 3:
    loop {
        h0.ll(&mut val);
        val[0] += 1;
        val[3] = val[0] ^ val[1] ^ val[2];
        if h0.sc(&val) {
            break;
        }
    }
    h1.ll(&mut val);
    assert_eq!(val[3], val[0] ^ val[1] ^ val[2]);
    println!("atomic multiword fetch&add with checksum: {val:?}");

    // —— Introspection ————————————————————————————————————————
    // Each handle counts its own operations; `+=` totals the object's.
    let mut stats = h0.stats();
    stats += h1.stats();
    stats += h2.stats();
    println!(
        "stats: {} LLs, {} SC attempts ({} successful), {} VLs",
        stats.ll_ops, stats.sc_attempts, stats.sc_successes, stats.vl_ops
    );
    let space = obj.space();
    println!(
        "space: {} shared words for N={}, W={} (3NW buffer words + {} LL/SC cells)",
        space.shared_words(),
        space.n,
        space.w,
        space.llsc_cells
    );
}
