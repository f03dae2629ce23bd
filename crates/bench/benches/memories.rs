//! Token-memory microbenchmarks: list vs hash memories for scans and
//! delete searches as memory size grows — the mechanism behind Tables
//! 4-2/4-3.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ops5::{Program, Value, Wme};
use rete::memory::{HashMem, ListMem, TokenMem};
use rete::network::Network;
use rete::token::Token;
use rete::HashMemConfig;
use std::sync::Arc;

fn setup() -> (
    ops5::SymbolId,
    ops5::SymbolId,
    rete::network::JoinNode,
    Arc<Network>,
) {
    let mut prog = Program::from_source("(p q (a ^x <v>) (b ^y <v>) --> (halt))").unwrap();
    let net = Arc::new(Network::compile(&prog).unwrap());
    let ca = prog.symbols.intern("a");
    let cb = prog.symbols.intern("b");
    let j = net.join(0).clone();
    (ca, cb, j, net)
}

fn scan(c: &mut Criterion) {
    let mut g = c.benchmark_group("memories/scan-right");
    for size in [16usize, 128, 1024] {
        let (ca, cb, j, net) = setup();
        let mut list = ListMem::new(net.n_joins());
        let mut hash = HashMem::new(HashMemConfig { buckets: 256 }, net.n_joins());
        for i in 0..size {
            let w = Wme::new(cb, vec![Value::Int(i as i64)], i as u64 + 1);
            list.insert_right(&j, list.right_key(&j, &w), w.clone());
            hash.insert_right(&j, hash.right_key(&j, &w), w);
        }
        let tok = Token::single(Wme::new(ca, vec![Value::Int(7)], 100_000));
        let mut out = Vec::new();
        g.bench_with_input(BenchmarkId::new("list", size), &size, |b, _| {
            b.iter(|| {
                list.scan_right(&j, list.left_key(&j, &tok), &tok, &mut out);
                out.len()
            })
        });
        g.bench_with_input(BenchmarkId::new("hash", size), &size, |b, _| {
            b.iter(|| {
                hash.scan_right(&j, hash.left_key(&j, &tok), &tok, &mut out);
                out.len()
            })
        });
    }
    g.finish();
}

fn delete_search(c: &mut Criterion) {
    let mut g = c.benchmark_group("memories/delete-search");
    for size in [16usize, 256] {
        g.bench_with_input(BenchmarkId::new("list", size), &size, |b, &size| {
            b.iter_with_setup(
                || {
                    let (_ca, cb, j, net) = setup();
                    let mut m = ListMem::new(net.n_joins());
                    for i in 0..size {
                        let w = Wme::new(cb, vec![Value::Int(i as i64)], i as u64 + 1);
                        m.insert_right(&j, m.right_key(&j, &w), w);
                    }
                    (
                        m,
                        j,
                        Wme::new(cb, vec![Value::Int(size as i64 - 1)], size as u64),
                    )
                },
                |(mut m, j, target)| {
                    let k = m.right_key(&j, &target);
                    m.remove_right(&j, k, &target).examined
                },
            )
        });
        g.bench_with_input(BenchmarkId::new("hash", size), &size, |b, &size| {
            b.iter_with_setup(
                || {
                    let (_ca, cb, j, net) = setup();
                    let mut m = HashMem::new(HashMemConfig { buckets: 256 }, net.n_joins());
                    for i in 0..size {
                        let w = Wme::new(cb, vec![Value::Int(i as i64)], i as u64 + 1);
                        m.insert_right(&j, m.right_key(&j, &w), w);
                    }
                    (
                        m,
                        j,
                        Wme::new(cb, vec![Value::Int(size as i64 - 1)], size as u64),
                    )
                },
                |(mut m, j, target)| {
                    let k = m.right_key(&j, &target);
                    m.remove_right(&j, k, &target).examined
                },
            )
        });
    }
    g.finish();
}

criterion_group!(benches, scan, delete_search);
criterion_main!(benches);
