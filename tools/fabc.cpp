//===- fabc.cpp - FABIUS command-line driver ------------------------------===//
//
// Compiles an ML source file through the FABIUS pipeline and runs it on
// the FAB-32 simulator.
//
//   fabc FILE.ml [options] --call FN ARG...
//
//   --plain            compile without run-time code generation
//   --memoize-self FN  route FN's self tail calls through the memo table
//                      (needed for cyclic early arguments)
//   --no-decode-cache  run the simulator's reference interpreter instead of
//                      the predecoded basic-block engine (see docs/VM.md);
//                      results and statistics are identical, only host
//                      speed changes
//   --no-templates     emit dynamic code word-by-word (li/sw) instead of
//                      copying pre-encoded templates; generated code is
//                      byte-identical, only generator speed changes
//   --disasm FN        disassemble FN's static code (first 64 words)
//   --stats            print simulator statistics after the call
//   --trace FILE       record lifecycle events (specialize/memo/reset/...)
//                      and write them as Chrome trace_event JSON, loadable
//                      in chrome://tracing or Perfetto (docs/TELEMETRY.md)
//   --no-trace         force tracing off (same as FAB_TRACE=0)
//   --call FN ARG...   call FN; integer args, or [1,2,3] vector literals
//
// Example:
//   cat > dot.ml <<'EOF'
//   fun dotprod v1 v2 = loop (v1, 0, length v1) (v2, 0)
//   and loop (v1 : int vector, i, n) (v2 : int vector, sum) =
//     if i = n then sum
//     else loop (v1, i + 1, n) (v2, sum + (v1 sub i) * (v2 sub i))
//   EOF
//   fabc dot.ml --stats --call dotprod [1,2,3] [4,5,6]
//
//===----------------------------------------------------------------------===//

#include "core/Fabius.h"
#include "ml/AstPrinter.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

using namespace fab;

namespace {

[[noreturn]] void usage(const char *Msg = nullptr) {
  if (Msg)
    std::fprintf(stderr, "fabc: %s\n", Msg);
  std::fprintf(stderr,
               "usage: fabc FILE.ml [--plain] [--memoize-self FN]\n"
               "            [--no-decode-cache] [--no-templates]\n"
               "            [--disasm FN]\n"
               "            [--dump-staging] [--stats]\n"
               "            [--trace FILE] [--no-trace]\n"
               "            --call FN ARG...\n"
               "ARG is an integer or a vector literal like [1,2,3]\n");
  std::exit(2);
}

/// Parses an integer or a [v1,v2,...] vector literal, allocating vectors
/// in the machine heap.
uint32_t parseArg(Machine &M, const std::string &S) {
  if (!S.empty() && S[0] == '[') {
    if (S.back() != ']')
      usage("malformed vector literal");
    std::vector<int32_t> Elems;
    std::string Body = S.substr(1, S.size() - 2);
    std::stringstream SS(Body);
    std::string Item;
    while (std::getline(SS, Item, ','))
      if (!Item.empty())
        Elems.push_back(static_cast<int32_t>(std::strtol(Item.c_str(),
                                                         nullptr, 0)));
    return M.heap().vector(Elems);
  }
  return static_cast<uint32_t>(std::strtol(S.c_str(), nullptr, 0));
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    usage();
  std::string File;
  FabiusOptions Opts = FabiusOptions::deferred();
  VmOptions VmOpts;
  bool Stats = false;
  bool DumpStaging = false;
  std::string TraceFile;
  std::string DisasmFn;
  std::string CallFn;
  std::vector<std::string> CallArgs;

  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (A == "--plain") {
      Opts.Backend.Mode = CompileMode::Plain;
    } else if (A == "--memoize-self") {
      if (++I >= Argc)
        usage("--memoize-self needs a function name");
      Opts.Backend.MemoizedSelfCalls.insert(Argv[I]);
    } else if (A == "--no-decode-cache") {
      VmOpts.EnableDecodeCache = false;
    } else if (A == "--no-templates") {
      Opts.Backend.EmitTemplates = false;
    } else if (A == "--disasm") {
      if (++I >= Argc)
        usage("--disasm needs a function name");
      DisasmFn = Argv[I];
    } else if (A == "--dump-staging") {
      DumpStaging = true;
    } else if (A == "--stats") {
      Stats = true;
    } else if (A == "--trace") {
      if (++I >= Argc)
        usage("--trace needs an output file");
      TraceFile = Argv[I];
      VmOpts.EnableTrace = true;
    } else if (A == "--no-trace") {
      VmOpts.EnableTrace = false;
      TraceFile.clear();
    } else if (A == "--call") {
      if (++I >= Argc)
        usage("--call needs a function name");
      CallFn = Argv[I];
      while (I + 1 < Argc)
        CallArgs.push_back(Argv[++I]);
    } else if (!A.empty() && A[0] == '-') {
      usage(("unknown option " + A).c_str());
    } else if (File.empty()) {
      File = A;
    } else {
      usage("multiple input files");
    }
  }
  if (File.empty())
    usage("no input file");

  std::ifstream In(File);
  if (!In)
    usage(("cannot open " + File).c_str());
  std::stringstream Buf;
  Buf << In.rdbuf();

  DiagnosticEngine Diags;
  auto C = compile(Buf.str(), Opts, Diags);
  if (!C) {
    std::fprintf(stderr, "%s", Diags.str().c_str());
    return 1;
  }
  std::printf("compiled %s: %zu words of static code, %zu functions "
              "(%zu staged)\n",
              File.c_str(), C->Unit.Code.size(), C->Unit.FnAddr.size(),
              C->Unit.GenAddr.size());

  if (DumpStaging) {
    ml::PrintOptions PO;
    PO.ShowStages = true;
    std::printf("\nstaging annotations ({early} executes in the generator, "
                "[late] is emitted):\n%s\n",
                ml::printProgram(*C->Ast, PO).c_str());
  }

  Machine M(C->Unit, VmOpts);

  if (!DisasmFn.empty()) {
    auto It = C->Unit.FnAddr.find(DisasmFn);
    if (It == C->Unit.FnAddr.end())
      usage(("unknown function " + DisasmFn).c_str());
    std::printf("\n%s at 0x%08x:\n%s", DisasmFn.c_str(), It->second,
                M.vm().disassembleRange(It->second, 64).c_str());
  }

  if (!CallFn.empty()) {
    if (!C->Unit.FnAddr.count(CallFn))
      usage(("unknown function " + CallFn).c_str());
    std::vector<uint32_t> Args;
    for (const std::string &S : CallArgs)
      Args.push_back(parseArg(M, S));
    FabResult<uint32_t> R = 0u;
    auto Keys = C->Unit.MemoKeys.find(CallFn);
    if (Stats && Keys != C->Unit.MemoKeys.end() && Args.size() >= Keys->second) {
      // Staged entry under --stats: run the explicit two-call sequence
      // (exactly what the wrapper does internally) so the
      // per-specialization generator-efficiency counters are populated.
      std::vector<uint32_t> Early(Args.begin(), Args.begin() + Keys->second);
      std::vector<uint32_t> Late(Args.begin() + Keys->second, Args.end());
      FabResult<uint32_t> Spec = M.specialize(CallFn, Early);
      if (!Spec) {
        std::printf("%s: %s\n", CallFn.c_str(),
                    Spec.error().message().c_str());
        return 1;
      }
      R = M.invoke<uint32_t>(*Spec, Late);
    } else {
      R = M.invoke<uint32_t>(CallFn, Args);
    }
    if (!R) {
      std::printf("%s trapped: %s\n", CallFn.c_str(),
                  R.error().Exec.describe().c_str());
      return 1;
    }
    std::printf("%s = %d (0x%08x)\n", CallFn.c_str(), static_cast<int32_t>(*R),
                *R);
  }

  if (Stats) {
    // One read through the snapshot (docs/TELEMETRY.md).
    const TelemetrySnapshot T = M.telemetry();
    const VmStats &S = T.Vm;
    std::printf("\nsimulator statistics:\n");
    std::printf("  instructions executed : %llu (static %llu, generated "
                "%llu)\n",
                static_cast<unsigned long long>(S.Executed),
                static_cast<unsigned long long>(S.ExecutedStatic),
                static_cast<unsigned long long>(S.ExecutedDynamic));
    std::printf("  instructions generated: %llu\n",
                static_cast<unsigned long long>(S.DynWordsWritten));
    std::printf("  cycles                : %llu (%.3f ms at 25 MHz)\n",
                static_cast<unsigned long long>(S.Cycles),
                static_cast<double>(S.Cycles) / 25000.0);
    std::printf("  icache flushes        : %llu (%llu bytes)\n",
                static_cast<unsigned long long>(S.Flushes),
                static_cast<unsigned long long>(S.FlushedBytes));

    const DecodeCacheStats &DC = T.DecodeCache;
    std::printf("decode cache (host-side; off = reference interpreter):\n");
    std::printf("  enabled               : %s\n",
                M.vm().decodeCacheEnabled() ? "yes" : "no");
    std::printf("  blocks built          : %llu (runs %llu, invalidations "
                "%llu)\n",
                static_cast<unsigned long long>(DC.BlocksBuilt),
                static_cast<unsigned long long>(DC.BlockRuns),
                static_cast<unsigned long long>(DC.Invalidations));
    std::printf("  instructions          : %llu fast, %llu slow (%llu fused "
                "pairs)\n",
                static_cast<unsigned long long>(DC.FastInsts),
                static_cast<unsigned long long>(DC.SlowInsts),
                static_cast<unsigned long long>(DC.FusedOps));

    const SpecializationStats &Sp = T.Memo;
    std::printf("specialization statistics:\n");
    std::printf("  generator runs        : %llu (memo hits %llu, misses "
                "%llu)\n",
                static_cast<unsigned long long>(Sp.GeneratorRuns),
                static_cast<unsigned long long>(Sp.MemoHits),
                static_cast<unsigned long long>(Sp.MemoMisses));
    if (Sp.GenDynWords)
      std::printf("  generator efficiency  : %.2f instructions per generated "
                  "instruction (%llu / %llu)\n",
                  T.generatorEfficiency(),
                  static_cast<unsigned long long>(Sp.GenExecuted),
                  static_cast<unsigned long long>(Sp.GenDynWords));
    std::printf("  specializations live  : %llu (code epoch %llu)\n",
                static_cast<unsigned long long>(T.SpecializationsLive),
                static_cast<unsigned long long>(T.CodeEpoch));

    const RecoveryStats &R = T.Recovery;
    std::printf("recovery statistics:\n");
    std::printf("  fault resets          : %llu (recovered retries %llu)\n",
                static_cast<unsigned long long>(R.FaultResets),
                static_cast<unsigned long long>(R.RecoveredRetries));
    std::printf("  plain fallback calls  : %llu\n",
                static_cast<unsigned long long>(R.PlainFallbackCalls));

    if (!T.Entries.empty()) {
      std::printf("per entry point:\n");
      for (const EntryPointProfile &P : T.Entries)
        std::printf("  %-20s: %llu calls, %llu specializations "
                    "(%llu memo hits), %llu words emitted\n",
                    P.Fn.c_str(), static_cast<unsigned long long>(P.Calls),
                    static_cast<unsigned long long>(P.Specializations),
                    static_cast<unsigned long long>(P.MemoHits),
                    static_cast<unsigned long long>(P.DynWords));
    }
  }

  if (!TraceFile.empty()) {
    std::ofstream Out(TraceFile);
    if (!Out) {
      std::fprintf(stderr, "fabc: cannot write %s\n", TraceFile.c_str());
      return 1;
    }
    std::vector<telemetry::TraceTrack> Tracks(1);
    Tracks[0].Tid = 0;
    Tracks[0].Label = "machine";
    Tracks[0].Events = M.trace().snapshot();
    telemetry::writeChromeTrace(Out, Tracks);
    std::printf("wrote %zu trace events to %s (load in chrome://tracing)\n",
                Tracks[0].Events.size(), TraceFile.c_str());
  }
  return 0;
}
