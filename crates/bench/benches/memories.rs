//! Token-memory microbenchmarks: list vs hash memories for scans and
//! delete searches as memory size grows — the mechanism behind Tables
//! 4-2/4-3.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ops5::{Program, SymbolId, Value, Wme, WmeRef};
use rete::memory::{HashMem, ListMem, TokenMem};
use rete::network::Network;
use rete::token::Token;
use rete::HashMemConfig;

fn setup() -> (SymbolId, SymbolId, Network) {
    let mut prog = Program::from_source("(p q (a ^x <v>) (b ^y <v>) --> (halt))").unwrap();
    let net = Network::compile(&prog).unwrap();
    let ca = prog.symbols.intern("a");
    let cb = prog.symbols.intern("b");
    (ca, cb, net)
}

fn hash_mem(net: &Network) -> HashMem {
    HashMem::new(HashMemConfig { buckets: 256 }, net)
}

fn b_wme(cb: SymbolId, i: usize) -> WmeRef {
    Wme::new(cb, vec![Value::Int(i as i64)], i as u64 + 1)
}

/// `size` distinct `b`s in the right memory the one join reads.
fn filled<M: TokenMem>(mut m: M, net: &Network, cb: SymbolId, size: usize) -> M {
    let mem = net.join(0).right_mem;
    let spec = &net.right_mems[mem as usize];
    for i in 0..size {
        let w = b_wme(cb, i);
        m.insert_right(mem, m.store_key(mem, spec, &w), w);
    }
    m
}

fn scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("memories/scan-right");
    for size in [16usize, 128, 1024] {
        let (ca, cb, net) = setup();
        let j = net.join(0);
        let list = filled(ListMem::new(&net), &net, cb, size);
        let hash = filled(hash_mem(&net), &net, cb, size);
        let tok = Token::single(Wme::new(ca, vec![Value::Int(7)], 100_000));
        let mut out = Vec::new();
        g.bench_with_input(BenchmarkId::new("list", size), &size, |b, _| {
            b.iter(|| {
                list.scan_right(j, list.probe_key(j, &tok), &tok, &mut out);
                out.len()
            })
        });
        g.bench_with_input(BenchmarkId::new("hash", size), &size, |b, _| {
            b.iter(|| {
                hash.scan_right(j, hash.probe_key(j, &tok), &tok, &mut out);
                out.len()
            })
        });
    }
    g.finish();
}

/// Removes the last-inserted WME from a freshly filled memory.
fn remove_last<M: TokenMem>(mut m: M, net: &Network, cb: SymbolId, size: usize) -> u64 {
    let mem = net.join(0).right_mem;
    let target = b_wme(cb, size - 1);
    let k = m.store_key(mem, &net.right_mems[mem as usize], &target);
    m.remove_right(mem, k, &target).examined
}

fn delete_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("memories/delete-search");
    let (_ca, cb, net) = setup();
    for size in [16usize, 256] {
        g.bench_with_input(BenchmarkId::new("list", size), &size, |b, &size| {
            b.iter_with_setup(
                || filled(ListMem::new(&net), &net, cb, size),
                |m| remove_last(m, &net, cb, size),
            )
        });
        g.bench_with_input(BenchmarkId::new("hash", size), &size, |b, &size| {
            b.iter_with_setup(
                || filled(hash_mem(&net), &net, cb, size),
                |m| remove_last(m, &net, cb, size),
            )
        });
    }
    g.finish();
}

criterion_group!(benches, scan, delete_search);
criterion_main!(benches);
