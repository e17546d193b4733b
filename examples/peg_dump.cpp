// Renders the Program Execution Graph of a program as Graphviz DOT —
// the paper's Fig. 5. Pass a MiniC file as argv[1] (entry function must be
// `kernel` taking float arrays), or run without arguments for a built-in
// stencil example. Pipe through `dot -Tpng` to plot.
//
//   ./build/examples/peg_dump > peg.dot && dot -Tpng peg.dot -o peg.png
#include <cstdio>
#include <fstream>
#include <sstream>

#include "frontend/lower.hpp"
#include "graph/peg.hpp"
#include "profiler/profile.hpp"

int main(int argc, char** argv) {
  using namespace mvgnn;

  std::string source = R"(
const int N = 16;
void kernel(float[] a, float[] b) {
  for (int i = 1; i < N - 1; i += 1) {
    b[i] = 0.25 * a[i - 1] + 0.5 * a[i] + 0.25 * a[i + 1];
  }
  float s = 0.0;
  for (int i = 0; i < N; i += 1) {
    s = s + b[i];
  }
  a[0] = s;
}
)";
  if (argc > 1) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    source = buf.str();
  }

  const ir::Module module = frontend::compile(source, "peg_dump");
  const ir::Function* kernel = module.find("kernel");
  if (!kernel) {
    std::fprintf(stderr, "no `kernel` function found\n");
    return 1;
  }
  const auto prof = profiler::profile(module, "kernel",
                                      profiler::default_args(*kernel));
  const graph::Peg peg = graph::build_peg(module, prof);

  // Whole-program PEG on stdout; per-loop sub-PEGs as comments after it.
  std::fputs(graph::to_dot(peg, "PEG").c_str(), stdout);
  for (const profiler::LoopSample& loop : prof.loops) {
    const auto sub = graph::extract_sub_peg(peg, loop.fn, loop.loop);
    std::printf("\n// sub-PEG of the loop at line %d (%zu nodes):\n",
                loop.fn->loops[loop.loop].start_line, sub.num_nodes());
    std::ostringstream name;
    name << "subpeg_line" << loop.fn->loops[loop.loop].start_line;
    // Emit as a comment block so the main DOT file stays valid.
    std::istringstream dot(graph::to_dot(peg, sub, name.str()));
    std::string line;
    while (std::getline(dot, line)) {
      std::printf("// %s\n", line.c_str());
    }
  }
  return 0;
}
