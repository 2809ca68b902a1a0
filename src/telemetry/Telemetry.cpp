//===- Telemetry.cpp ------------------------------------------------------===//

#include "telemetry/Telemetry.h"

#include <algorithm>
#include <chrono>
#include <deque>
#include <map>
#include <mutex>
#include <ostream>
#include <sstream>

using namespace fab;
using namespace fab::telemetry;

//===----------------------------------------------------------------------===//
// Clock and name interning
//===----------------------------------------------------------------------===//

uint64_t fab::telemetry::traceNowNs() {
  // One steady epoch for the whole process so rings owned by different
  // workers produce comparable stamps.
  static const std::chrono::steady_clock::time_point Epoch =
      std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Epoch)
          .count());
}

namespace {

struct NameTable {
  std::mutex M;
  std::deque<std::string> Names{""}; // id 0 = empty
  std::map<std::string, uint16_t, std::less<>> Ids;

  static NameTable &get() {
    static NameTable T;
    return T;
  }
};

} // namespace

uint16_t fab::telemetry::internName(std::string_view Name) {
  if (Name.empty())
    return 0;
  NameTable &T = NameTable::get();
  std::lock_guard<std::mutex> L(T.M);
  auto It = T.Ids.find(Name);
  if (It != T.Ids.end())
    return It->second;
  if (T.Names.size() > 0xFFFF)
    return 0; // table full: events fall back to the anonymous id
  auto Id = static_cast<uint16_t>(T.Names.size());
  T.Names.emplace_back(Name);
  T.Ids.emplace(std::string(Name), Id);
  return Id;
}

const std::string &fab::telemetry::internedName(uint16_t Id) {
  NameTable &T = NameTable::get();
  std::lock_guard<std::mutex> L(T.M);
  return T.Names[Id < T.Names.size() ? Id : 0];
}

const char *fab::telemetry::eventName(EventKind K) {
  switch (K) {
  case EventKind::SpecializeBegin:
    return "specialize_begin";
  case EventKind::SpecializeEnd:
    return "specialize_end";
  case EventKind::MemoHit:
    return "memo_hit";
  case EventKind::MemoMiss:
    return "memo_miss";
  case EventKind::TemplateFlush:
    return "template_flush";
  case EventKind::CodeGuardTrip:
    return "code_guard_trip";
  case EventKind::CodeSpaceReset:
    return "code_space_reset";
  case EventKind::BlockBuild:
    return "block_build";
  case EventKind::BlockInvalidate:
    return "block_invalidate";
  case EventKind::WorkerBegin:
    return "worker_begin";
  case EventKind::WorkerComplete:
    return "worker_complete";
  case EventKind::RequestShed:
    return "request_shed";
  case EventKind::RequestRetry:
    return "request_retry";
  case EventKind::BreakerOpen:
    return "breaker_open";
  case EventKind::BreakerProbe:
    return "breaker_probe";
  case EventKind::BreakerClose:
    return "breaker_close";
  case EventKind::ConnOpen:
    return "conn_open";
  case EventKind::ConnClose:
    return "conn_close";
  case EventKind::FrameRecv:
    return "frame_recv";
  case EventKind::FrameSend:
    return "frame_send";
  }
  return "unknown";
}

//===----------------------------------------------------------------------===//
// Snapshot aggregation
//===----------------------------------------------------------------------===//

TelemetrySnapshot &TelemetrySnapshot::operator+=(const TelemetrySnapshot &R) {
  Vm += R.Vm;
  Memo += R.Memo;
  Recovery += R.Recovery;
  DecodeCache += R.DecodeCache;
  CodeEpoch = std::max(CodeEpoch, R.CodeEpoch);
  SpecializationsLive += R.SpecializationsLive;
  CodeSpaceUsed += R.CodeSpaceUsed;
  TraceRecorded += R.TraceRecorded;
  TraceDropped += R.TraceDropped;

  Workers += R.Workers;
  Submitted += R.Submitted;
  Served += R.Served;
  Errors += R.Errors;
  Rejected += R.Rejected;
  Coalesced += R.Coalesced;
  QueueHighWater = std::max(QueueHighWater, R.QueueHighWater);
  BusyCyclesTotal += R.BusyCyclesTotal;
  BusyCyclesMax = std::max(BusyCyclesMax, R.BusyCyclesMax);
  HeapRecycles += R.HeapRecycles;
  Cache += R.Cache;
  Overload += R.Overload;
  Latency += R.Latency;
  BreakersOpen += R.BreakersOpen;
  WorkerLoads.insert(WorkerLoads.end(), R.WorkerLoads.begin(),
                     R.WorkerLoads.end());
  Net += R.Net;
  Reactor += R.Reactor;
  ShardLoads.insert(ShardLoads.end(), R.ShardLoads.begin(),
                    R.ShardLoads.end());

  // Merge profiles by function name, keeping Entries sorted.
  std::map<std::string, EntryPointProfile> ByFn;
  for (const EntryPointProfile &P : Entries)
    ByFn[P.Fn] += P;
  for (const EntryPointProfile &P : R.Entries)
    ByFn[P.Fn] += P;
  Entries.clear();
  for (auto &[Fn, P] : ByFn) {
    P.Fn = Fn;
    Entries.push_back(P);
  }
  return *this;
}

//===----------------------------------------------------------------------===//
// Text exporter
//===----------------------------------------------------------------------===//

void TelemetrySnapshot::writeText(std::ostream &OS,
                                  const std::string &Prefix) const {
  auto Line = [&](const char *Path, uint64_t V) {
    OS << Prefix << '.' << Path << ' ' << V << '\n';
  };
  Line("vm.executed", Vm.Executed);
  Line("vm.executed_static", Vm.ExecutedStatic);
  Line("vm.executed_dynamic", Vm.ExecutedDynamic);
  Line("vm.loads", Vm.Loads);
  Line("vm.stores", Vm.Stores);
  Line("vm.dyn_words_written", Vm.DynWordsWritten);
  Line("vm.flushes", Vm.Flushes);
  Line("vm.flushed_bytes", Vm.FlushedBytes);
  Line("vm.cycles", Vm.Cycles);
  Line("memo.generator_runs", Memo.GeneratorRuns);
  Line("memo.hits", Memo.MemoHits);
  Line("memo.misses", Memo.MemoMisses);
  Line("memo.gen_executed", Memo.GenExecuted);
  Line("memo.gen_dyn_words", Memo.GenDynWords);
  OS << Prefix << ".memo.generator_efficiency " << generatorEfficiency()
     << '\n';
  Line("recovery.fault_resets", Recovery.FaultResets);
  Line("recovery.recovered_retries", Recovery.RecoveredRetries);
  Line("recovery.plain_fallback_calls", Recovery.PlainFallbackCalls);
  Line("decode_cache.blocks_built", DecodeCache.BlocksBuilt);
  Line("decode_cache.block_runs", DecodeCache.BlockRuns);
  Line("decode_cache.fast_insts", DecodeCache.FastInsts);
  Line("decode_cache.slow_insts", DecodeCache.SlowInsts);
  Line("decode_cache.fused_ops", DecodeCache.FusedOps);
  Line("decode_cache.invalidations", DecodeCache.Invalidations);
  Line("machine.code_epoch", CodeEpoch);
  Line("machine.specializations_live", SpecializationsLive);
  Line("machine.code_space_used", CodeSpaceUsed);
  Line("trace.recorded", TraceRecorded);
  Line("trace.dropped", TraceDropped);
  if (Workers) {
    Line("server.workers", Workers);
    Line("server.submitted", Submitted);
    Line("server.served", Served);
    Line("server.errors", Errors);
    Line("server.rejected", Rejected);
    Line("server.coalesced", Coalesced);
    Line("server.queue_high_water", QueueHighWater);
    Line("server.busy_cycles_total", BusyCyclesTotal);
    Line("server.busy_cycles_max", BusyCyclesMax);
    Line("server.heap_recycles", HeapRecycles);
    Line("server.shed", Overload.Shed);
    Line("server.deadline_misses", Overload.DeadlineMisses);
    Line("server.retried", Overload.Retried);
    Line("server.retry_successes", Overload.RetrySuccesses);
    Line("server.breaker_opens", Overload.BreakerOpens);
    Line("server.breaker_fallbacks", Overload.BreakerFallbacks);
    Line("server.breaker_probes", Overload.BreakerProbes);
    Line("server.breaker_fast_fails", Overload.BreakerFastFails);
    Line("server.breakers_open", BreakersOpen);
    Line("server.latency_count", Latency.Count);
    Line("server.latency_p50_ns", Latency.quantileNs(0.50));
    Line("server.latency_p99_ns", Latency.quantileNs(0.99));
    Line("server.latency_max_ns", Latency.MaxNs);
    Line("cache.hits", Cache.Hits);
    Line("cache.misses", Cache.Misses);
    Line("cache.evictions", Cache.Evictions);
    Line("cache.rehydrations", Cache.Rehydrations);
    Line("cache.invalidated", Cache.Invalidated);
    Line("cache.admission_rejects", Cache.AdmissionRejects);
    Line("cache.admission_admits", Cache.AdmissionAdmits);
    Line("cache.compactions", Cache.Compactions);
    Line("cache.compact_kept", Cache.CompactKept);
    Line("cache.compact_dropped", Cache.CompactDropped);
    Line("cache.warm_restored", Cache.WarmRestored);
    for (const WorkerLoadRow &W : WorkerLoads) {
      auto WLine = [&](const char *Path, uint64_t V) {
        OS << Prefix << ".worker." << W.Worker << '.' << Path << ' ' << V
           << '\n';
      };
      WLine("queue_high_water", W.QueueHighWater);
      WLine("shed", W.Shed);
      WLine("deadline_misses", W.DeadlineMisses);
      WLine("retried", W.Retried);
      WLine("breaker_opens", W.BreakerOpens);
      WLine("served", W.Served);
      WLine("errors", W.Errors);
    }
  }
  if (Net.Connections || Net.FramesIn) {
    Line("net.connections", Net.Connections);
    Line("net.disconnects", Net.Disconnects);
    Line("net.frames_in", Net.FramesIn);
    Line("net.frames_out", Net.FramesOut);
    Line("net.bytes_in", Net.BytesIn);
    Line("net.bytes_out", Net.BytesOut);
    Line("net.read_batches", Net.ReadBatches);
    Line("net.batched_frames", Net.BatchedFrames);
    Line("net.submits", Net.Submits);
    Line("net.invalidates", Net.Invalidates);
    Line("net.stats_requests", Net.StatsRequests);
    Line("net.errors_out", Net.ErrorsOut);
    Line("net.protocol_errors", Net.ProtocolErrors);
    Line("net.pipeline_high_water", Net.PipelineHighWater);
    Line("net.cap_rejects", Net.CapRejects);
  }
  if (Reactor.Wakeups || Reactor.OpenConns || Reactor.IdleClosed) {
    Line("reactor.wakeups", Reactor.Wakeups);
    Line("reactor.events_dispatched", Reactor.EventsDispatched);
    OS << Prefix << ".reactor.wakeup_batch " << Reactor.wakeupBatch() << '\n';
    Line("reactor.timer_ticks", Reactor.TimerTicks);
    Line("reactor.idle_closed", Reactor.IdleClosed);
    Line("reactor.accept_rejects", Reactor.AcceptRejects);
    Line("reactor.write_stalls", Reactor.WriteStalls);
    Line("reactor.write_stall_peak_bytes", Reactor.WriteStallPeakBytes);
    Line("reactor.open_conns", Reactor.OpenConns);
    Line("reactor.peak_conns", Reactor.PeakConns);
  }
  for (const ShardLoadRow &S : ShardLoads) {
    auto SLine = [&](const char *Path, uint64_t V) {
      OS << Prefix << ".shard." << S.Shard << '.' << Path << ' ' << V << '\n';
    };
    SLine("connections", S.Net.Connections);
    SLine("disconnects", S.Net.Disconnects);
    SLine("frames_in", S.Net.FramesIn);
    SLine("frames_out", S.Net.FramesOut);
    SLine("bytes_in", S.Net.BytesIn);
    SLine("bytes_out", S.Net.BytesOut);
    SLine("submits", S.Net.Submits);
    SLine("cap_rejects", S.Net.CapRejects);
    SLine("wakeups", S.Reactor.Wakeups);
    SLine("events_dispatched", S.Reactor.EventsDispatched);
    SLine("idle_closed", S.Reactor.IdleClosed);
    SLine("accept_rejects", S.Reactor.AcceptRejects);
    SLine("open_conns", S.Reactor.OpenConns);
    SLine("peak_conns", S.Reactor.PeakConns);
  }
  for (const EntryPointProfile &P : Entries) {
    auto Entry = [&](const char *Path, uint64_t V) {
      OS << Prefix << ".entry." << P.Fn << '.' << Path << ' ' << V << '\n';
    };
    Entry("specializations", P.Specializations);
    Entry("memo_hits", P.MemoHits);
    Entry("dyn_words", P.DynWords);
    Entry("gen_instrs", P.GenInstrs);
    Entry("calls", P.Calls);
  }
}

std::string TelemetrySnapshot::text(const std::string &Prefix) const {
  std::ostringstream OS;
  writeText(OS, Prefix);
  return OS.str();
}

std::string TelemetrySnapshot::summaryLine() const {
  std::ostringstream OS;
  if (Workers) {
    OS << "workers=" << Workers << " served=" << Served
       << " errors=" << Errors << " coalesced=" << Coalesced
       << " cache_hit=" << Cache.Hits << "/" << (Cache.Hits + Cache.Misses)
       << " shed=" << Overload.Shed << " dl_miss=" << Overload.DeadlineMisses
       << " retried=" << Overload.Retried
       << " brk_open=" << Overload.BreakerOpens;
    if (!WorkerLoads.empty()) {
      // Per-worker queue high-water marks, in worker order, so a single
      // backed-up worker is visible in the live reporter line.
      OS << " q_hw=[";
      for (size_t I = 0; I < WorkerLoads.size(); ++I)
        OS << (I ? "," : "") << WorkerLoads[I].QueueHighWater;
      OS << ']';
    }
    OS << ' ';
  }
  OS << "exec=" << Vm.Executed << " gen_runs=" << Memo.GeneratorRuns
     << " memo_hits=" << Memo.MemoHits << " gen_words=" << Memo.GenDynWords
     << " eff=" << generatorEfficiency()
     << " resets=" << Recovery.FaultResets << " live=" << SpecializationsLive
     << " epoch=" << CodeEpoch;
  return OS.str();
}

//===----------------------------------------------------------------------===//
// Chrome trace exporter
//===----------------------------------------------------------------------===//

namespace {

void jsonEscape(std::ostream &OS, const std::string &S) {
  for (char C : S) {
    if (C == '"' || C == '\\')
      OS << '\\' << C;
    else if (static_cast<unsigned char>(C) < 0x20)
      OS << "\\u00" << "0123456789abcdef"[(C >> 4) & 0xF]
         << "0123456789abcdef"[C & 0xF];
    else
      OS << C;
  }
}

void writeCommonArgs(std::ostream &OS, const TraceEvent &E) {
  OS << "\"args\":{\"sim_instr\":" << E.SimInstr << ",\"epoch\":" << E.Epoch
     << ",\"arg0\":" << E.Arg0 << ",\"arg1\":" << E.Arg1 << "}";
}

} // namespace

void fab::telemetry::writeChromeTrace(std::ostream &OS,
                                      const std::vector<TraceTrack> &Tracks) {
  OS << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool First = true;
  auto Emit = [&](const TraceTrack &T, const TraceEvent &E, char Ph,
                  const std::string &Name) {
    if (!First)
      OS << ",";
    First = false;
    // trace_event timestamps are microseconds (double).
    OS << "\n{\"name\":\"";
    jsonEscape(OS, Name);
    OS << "\",\"cat\":\"fabius\",\"ph\":\"" << Ph << "\",\"ts\":"
       << static_cast<double>(E.TimeNs) / 1000.0 << ",\"pid\":1,\"tid\":"
       << T.Tid << ",";
    if (Ph == 'i')
      OS << "\"s\":\"t\",";
    writeCommonArgs(OS, E);
    OS << "}";
  };

  for (const TraceTrack &T : Tracks) {
    if (!T.Label.empty()) {
      if (!First)
        OS << ",";
      First = false;
      OS << "\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":"
         << T.Tid << ",\"args\":{\"name\":\"";
      jsonEscape(OS, T.Label);
      OS << "\"}}";
    }
    for (const TraceEvent &E : T.Events) {
      // Begin/end pairs share one span name so viewers pair them.
      std::string Name;
      switch (E.Kind) {
      case EventKind::SpecializeBegin:
      case EventKind::SpecializeEnd:
        Name = "specialize";
        break;
      case EventKind::WorkerBegin:
      case EventKind::WorkerComplete:
        Name = "serve";
        break;
      default:
        Name = eventName(E.Kind);
        break;
      }
      if (E.Name)
        Name += ":" + internedName(E.Name);
      switch (E.Kind) {
      case EventKind::SpecializeBegin:
      case EventKind::WorkerBegin:
        Emit(T, E, 'B', Name);
        break;
      case EventKind::SpecializeEnd:
      case EventKind::WorkerComplete:
        Emit(T, E, 'E', Name);
        break;
      default:
        Emit(T, E, 'i', Name);
        break;
      }
    }
  }
  OS << "\n]}\n";
}
