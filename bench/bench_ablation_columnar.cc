// Row-shim vs vectorized ablation (no paper counterpart): the same View 1
// maintenance epochs — a new-key insert batch and a uniform delete batch —
// run once through the row-at-a-time shim (vector_chunk_size = 0) and once
// through the columnar batch executor at its effective chunk width. Both
// paths produce byte-identical views and counters (columnar_property_test
// enforces that); this figure records what the vectorized inner loops buy
// in wall-clock on exactly the delta hot path the paper's figures sweep.
#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "exec/vector_ops.h"
#include "ivm/view_manager.h"
#include "obs/metrics.h"
#include "tpch/views.h"
#include "util/check.h"

namespace gpivot::bench {
namespace {

constexpr const char* kFigure = "Ablation/RowVsColumn";
constexpr double kFraction = 0.04;

void RunAblation(benchmark::State& state, bool vectorized, bool deletes) {
  const BenchContext& context = SharedContext();
  ExecContext exec = BenchExecContext();
  // The one knob under ablation. The vectorized arm keeps the effective
  // env-driven width so the recorded vector_chunk_size matches the run.
  exec.vector_chunk_size =
      vectorized ? gpivot::exec::EffectiveVectorChunkSize(exec) : 0;
  const bool verify = std::getenv("GPIVOT_BENCH_VERIFY") != nullptr;
  const bool audit = std::getenv("GPIVOT_BENCH_AUDIT") != nullptr;
  const size_t reps = BenchReps();
  size_t view_rows = 0;
  size_t delta_rows = 0;
  std::vector<double> rep_ms;
  std::string metrics_json;
  std::string cost_json;
  std::string cost_text;
  std::string prom_text;
  for (auto _ : state) {
    rep_ms.clear();
    for (size_t rep = 0; rep < reps; ++rep) {
      tpch::Data copy = context.data;
      auto catalog = tpch::MakeCatalog(std::move(copy));
      GPIVOT_CHECK(catalog.ok()) << catalog.status().ToString();
      auto query = tpch::View1(*catalog, context.config.max_line_numbers);
      GPIVOT_CHECK(query.ok()) << query.status().ToString();
      ivm::ViewManager manager(std::move(*catalog));
      manager.set_exec_context(exec);
      Status defined =
          manager.DefineView("v", *query, ivm::RefreshStrategy::kUpdate);
      GPIVOT_CHECK(defined.ok()) << defined.ToString();
      auto workload =
          deletes ? tpch::MakeLineitemDeletes(manager.catalog(), kFraction,
                                              0xC0DE)
                  : tpch::MakeLineitemInsertsNewKeys(
                        manager.catalog(), context.config, kFraction, 0xC0DE);
      GPIVOT_CHECK(workload.ok()) << workload.status().ToString();
      delta_rows = 0;
      for (const auto& [name, delta] : *workload) {
        delta_rows += delta.inserts.num_rows() + delta.deletes.num_rows();
      }
      if (exec.metrics != nullptr) exec.metrics->Reset();

      // Timed: one maintenance epoch under the selected execution path.
      auto wall_begin = std::chrono::steady_clock::now();
      Status st = manager.ApplyUpdate(*workload);
      GPIVOT_CHECK(st.ok()) << st.ToString();
      auto wall_end = std::chrono::steady_clock::now();

      rep_ms.push_back(
          std::chrono::duration<double, std::milli>(wall_end - wall_begin)
              .count());
      if (exec.metrics != nullptr && exec.metrics->enabled()) {
        obs::MetricsSnapshot snapshot = exec.metrics->Snapshot();
        metrics_json = snapshot.ToJson(5);
        prom_text = snapshot.ToPrometheusText();
        auto cost = manager.ExplainAnalyze("v");
        if (cost.ok()) {
          cost_json = cost->ToJsonLine();
          cost_text = cost->ToText();
        }
      }
      view_rows = manager.GetView("v").value()->num_rows();
      if (verify) {
        auto recomputed = manager.RecomputeFromScratch("v");
        GPIVOT_CHECK(recomputed.ok()) << recomputed.status().ToString();
        GPIVOT_CHECK(
            recomputed->BagEquals(manager.GetView("v").value()->table()))
            << "verification failed for "
            << (vectorized ? "vectorized" : "row_shim");
      }
      if (audit) {
        Status audited = manager.Audit();
        GPIVOT_CHECK(audited.ok()) << audited.ToString();
      }
    }
    std::sort(rep_ms.begin(), rep_ms.end());
    state.SetIterationTime(rep_ms.front() / 1000.0);
  }
  state.counters["view_rows"] = static_cast<double>(view_rows);
  state.counters["delta_rows"] = static_cast<double>(delta_rows);
  std::string strategy = std::string(vectorized ? "vectorized" : "row_shim") +
                         (deletes ? "_delete" : "_insert");
  AddFigureRecord(kFigure,
                  FigureRecord{strategy, kFraction,
                               SummarizeReps(std::move(rep_ms)), view_rows,
                               delta_rows, std::move(metrics_json),
                               std::move(cost_json), std::move(cost_text),
                               std::move(prom_text), /*extra=*/std::string()});
}

void RegisterAblation() {
  ValidateBenchEnvOnce();
  for (bool deletes : {false, true}) {
    for (bool vectorized : {false, true}) {
      std::string name = std::string(kFigure) + "/" +
                         (vectorized ? "vectorized" : "row_shim") +
                         (deletes ? "_delete" : "_insert");
      benchmark::RegisterBenchmark(
          name.c_str(),
          [vectorized, deletes](benchmark::State& state) {
            RunAblation(state, vectorized, deletes);
          })
          ->Unit(benchmark::kMillisecond)
          ->UseManualTime()
          ->Iterations(1);
    }
  }
}

}  // namespace
}  // namespace gpivot::bench

int main(int argc, char** argv) {
  gpivot::bench::RegisterAblation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
