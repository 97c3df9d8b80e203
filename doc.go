// Package repro reproduces "Building Scalable PGAS Communication
// Subsystem on Blue Gene/Q" (Vishnu, Kerbyson, Barker, van Dam — IPDPS
// 2013) as a pure-Go system: a deterministic discrete-event simulation of
// the Blue Gene/Q machine (5-D torus, messaging unit, PAMI progress
// semantics) carrying a full ARMCI implementation, a minimal Global
// Arrays layer, and an NWChem SCF application proxy.
//
// See README.md for a tour, DESIGN.md for the system inventory and the
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// The benchmarks in bench_test.go regenerate every table and figure of
// the paper's evaluation section, and time the simulator itself.
package repro
