// Substrate ablation: blocked/parallel GEMM kernel throughput (the matmul
// behind every GCN layer). google-benchmark microbench across sizes and
// transpose modes, plus the fused bias epilogue and the CSR spmm that the
// dispatching backend layer (docs/kernels.md) also serves. Every dense case
// exports a `gflops` counter (2*m*k*n flops per product), which the CI
// bench gate diffs against the committed BENCH_gemm.json snapshot. Every
// case runs on real time, so the rates of a call that fans out to the pool
// count its wall clock, not the caller's CPU time alone.
// BM_GemmFanOut is the evidence behind tensor::kMinTaskWork; it depends on
// the machine's core count and load, so CI does not gate it.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <vector>

#include "bench/gbench_report.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/rng.hpp"
#include "tensor/backend/backend.hpp"
#include "tensor/gemm.hpp"

namespace {

using namespace mvgnn;

void fill(std::vector<float>& v, std::uint64_t seed) {
  par::Rng rng(seed);
  for (float& x : v) x = static_cast<float>(rng.normal());
}

void set_gemm_rates(benchmark::State& state, std::size_t m, std::size_t k,
                    std::size_t n) {
  const auto flops =
      static_cast<std::int64_t>(state.iterations()) * 2 * m * k * n;
  state.SetItemsProcessed(flops);
  state.counters["gflops"] = benchmark::Counter(
      static_cast<double>(flops) * 1e-9, benchmark::Counter::kIsRate);
}

void BM_GemmSquare(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<float> a(n * n), b(n * n), c(n * n);
  fill(a, 1);
  fill(b, 2);
  for (auto _ : state) {
    tensor::gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  set_gemm_rates(state, n, n, n);
}
BENCHMARK(BM_GemmSquare)->Arg(32)->Arg(64)->Arg(128)->Arg(256)->UseRealTime();

void BM_GemmTransposedB(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<float> a(n * n), b(n * n), c(n * n);
  fill(a, 3);
  fill(b, 4);
  for (auto _ : state) {
    tensor::gemm(a.data(), b.data(), c.data(), n, n, n, false, true);
    benchmark::DoNotOptimize(c.data());
  }
  set_gemm_rates(state, n, n, n);
}
BENCHMARK(BM_GemmTransposedB)->Arg(64)->Arg(128)->UseRealTime();

/// The GNN-typical shape: tall-skinny (n nodes x small feature dims).
void BM_GemmGnnShape(benchmark::State& state) {
  const std::size_t nodes = static_cast<std::size_t>(state.range(0));
  const std::size_t dim = 32;
  std::vector<float> a(nodes * nodes), x(nodes * dim), y(nodes * dim);
  fill(a, 5);
  fill(x, 6);
  for (auto _ : state) {
    tensor::gemm(a.data(), x.data(), y.data(), nodes, nodes, dim);
    benchmark::DoNotOptimize(y.data());
  }
  set_gemm_rates(state, nodes, nodes, dim);
}
BENCHMARK(BM_GemmGnnShape)->Arg(8)->Arg(32)->Arg(128)->UseRealTime();

/// Linear layer shape with the bias add fused into the GEMM — what
/// ag::matmul_bias issues per layer. Compares directly against
/// BM_GemmSquare at the same size: the delta is the epilogue cost that used
/// to be an extra full pass over the output.
void BM_GemmFusedBias(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::vector<float> a(n * n), b(n * n), c(n * n), bias(n);
  fill(a, 7);
  fill(b, 8);
  fill(bias, 9);
  tensor::Epilogue ep;
  ep.bias_col = bias.data();
  for (auto _ : state) {
    tensor::gemm(a.data(), b.data(), c.data(), n, n, n, false, false, false,
                 ep);
    benchmark::DoNotOptimize(c.data());
  }
  set_gemm_rates(state, n, n, n);
}
BENCHMARK(BM_GemmFusedBias)->Arg(64)->Arg(128)->UseRealTime();

/// The fan-out break-even behind tensor::kMinTaskWork: a GNN-shaped GEMM
/// (k = 100, n = 32, m rows) of about 2^log2_work multiply-adds, run three
/// ways. pool:0 on a one-worker pool (always serial), pool:1 through the
/// driver on the global pool (the shipped rule), pool:2 split into one row
/// block per global-pool worker whatever its size (a driver without the
/// rule). pool:2 over pool:0 is what a task hop costs or gains at that
/// size; pool:1 should never read slower than pool:0.
void BM_GemmFanOut(benchmark::State& state) {
  const std::size_t k = 100, n = 32;
  const std::size_t m = (std::size_t{1} << state.range(0)) / (k * n);
  const int mode = static_cast<int>(state.range(1));
  std::vector<float> a(m * k), b(k * n), c(m * n);
  fill(a, 12);
  fill(b, 13);
  static par::ThreadPool one_worker(1);
  par::ThreadPool& pool = mode == 0 ? one_worker : par::ThreadPool::global();
  const tensor::KernelBackend& be = tensor::backend::active();
  const tensor::GemmArgs args{a.data(), b.data(), c.data(), m,  k,
                              n,        false,    false,    {}};
  const std::size_t split = (m + pool.size() - 1) / pool.size();
  for (auto _ : state) {
    if (mode == 2) {
      std::fill(c.begin(), c.end(), 0.0f);
      par::parallel_for_blocked(
          0, m,
          [&](std::size_t r0, std::size_t r1) {
            be.gemm_block(args, r0, r1, 0, n);
          },
          pool, split);
    } else {
      tensor::gemm(a.data(), b.data(), c.data(), m, k, n, false, false,
                   false, {}, pool);
    }
    benchmark::DoNotOptimize(c.data());
  }
  state.SetLabel(mode == 0 ? "serial" : mode == 1 ? "rule" : "split");
  set_gemm_rates(state, m, k, n);
}
BENCHMARK(BM_GemmFanOut)
    ->ArgNames({"log2_work", "pool"})
    ->ArgsProduct({{16, 17, 18, 19, 20, 21, 22}, {0, 1, 2}})
    ->UseRealTime();

/// CSR spmm at PEG-batch scale: block-diagonal-ish adjacency (~6 nnz/row)
/// against a node-feature panel, the message-passing product of every GCN
/// layer. gflops counts 2*nnz*cols useful flops.
void BM_SpmmCsr(benchmark::State& state) {
  const std::size_t rows = static_cast<std::size_t>(state.range(0));
  const std::size_t cols = 32, deg = 6;
  std::vector<std::uint32_t> row_ptr(rows + 1), col_idx;
  std::vector<float> vals;
  par::Rng rng(10);
  for (std::size_t r = 0; r < rows; ++r) {
    row_ptr[r] = static_cast<std::uint32_t>(col_idx.size());
    for (std::size_t e = 0; e < deg; ++e) {
      col_idx.push_back(static_cast<std::uint32_t>(rng.uniform_u64(rows)));
      vals.push_back(static_cast<float>(rng.normal()));
    }
  }
  row_ptr[rows] = static_cast<std::uint32_t>(col_idx.size());
  std::vector<float> x(rows * cols), out(rows * cols);
  fill(x, 11);
  for (auto _ : state) {
    tensor::spmm_csr(row_ptr.data(), col_idx.data(), vals.data(), rows,
                     x.data(), out.data(), cols);
    benchmark::DoNotOptimize(out.data());
  }
  const auto flops = static_cast<std::int64_t>(state.iterations()) * 2 *
                     static_cast<std::int64_t>(vals.size()) *
                     static_cast<std::int64_t>(cols);
  state.SetItemsProcessed(flops);
  state.counters["gflops"] = benchmark::Counter(
      static_cast<double>(flops) * 1e-9, benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SpmmCsr)->Arg(256)->Arg(2048)->UseRealTime();

}  // namespace

MVGNN_GBENCH_REPORT_MAIN("abl_gemm", "BENCH_gemm.json");
