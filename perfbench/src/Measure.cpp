//===- Measure.cpp - Exact-sample statistics and in-memory spans ----------===//

#include "Measure.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <map>
#include <unistd.h>
#include <unordered_map>

using namespace pb;

size_t pb::nearestRank(size_t N, double Q) {
  if (!N)
    return 0;
  // The epsilon keeps 0.99 * 1000 at rank 990 despite binary rounding.
  double R = std::ceil(Q * static_cast<double>(N) - 1e-9);
  if (R < 1)
    R = 1;
  if (R > static_cast<double>(N))
    R = static_cast<double>(N);
  return static_cast<size_t>(R);
}

Percentile pb::percentile(std::vector<double> V, double Q) {
  Percentile P;
  P.N = V.size();
  if (V.empty())
    return P;
  size_t Rank = nearestRank(V.size(), Q);
  std::nth_element(V.begin(), V.begin() + (Rank - 1), V.end());
  P.Value = V[Rank - 1];
  P.Enough = samplesBeyond(V.size(), Q) >= MinBeyond;
  return P;
}

double pb::stolenMs() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  uint64_t Field[8] = {};
  // cpu user nice system idle iowait irq softirq steal ...
  if (!(In >> Cpu) || Cpu != "cpu")
    return 0;
  for (uint64_t &F : Field)
    if (!(In >> F))
      return 0;
  long Hz = sysconf(_SC_CLK_TCK);
  return Hz > 0 ? static_cast<double>(Field[7]) * 1e3 / static_cast<double>(Hz)
                : 0;
}

double pb::median(std::vector<double> V) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2;
}

double pb::geomean(const std::vector<double> &V) {
  if (V.empty())
    return 0;
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return std::exp(LogSum / static_cast<double>(V.size()));
}

uint32_t Tracer::begin(const char *Name, uint32_t Parent, uint64_t Req) {
  if (!Enabled)
    return 0;
  uint64_t Now = nowNs();
  return add(Name, Parent, Req, Now, Now);
}

void Tracer::end(uint32_t Id) {
  if (Id)
    All[Id - 1].EndNs = nowNs();
}

uint32_t Tracer::add(const char *Name, uint32_t Parent, uint64_t Req,
                     uint64_t BeginNs, uint64_t EndNs) {
  if (!Enabled)
    return 0;
  Span S;
  S.Id = static_cast<uint32_t>(All.size() + 1);
  S.Parent = Parent;
  S.Req = Req;
  S.Name = Name;
  S.BeginNs = BeginNs;
  S.EndNs = EndNs;
  All.push_back(S);
  return S.Id;
}

bool Tracer::write(const std::string &Path) const {
  std::ofstream OS(Path);
  if (!OS)
    return false;
  for (const Span &S : All)
    OS << "{\"id\":" << S.Id << ",\"parent\":" << S.Parent
       << ",\"req\":" << S.Req << ",\"name\":\"" << S.Name
       << "\",\"begin_ns\":" << S.BeginNs << ",\"end_ns\":" << S.EndNs
       << "}\n";
  return static_cast<bool>(OS);
}

std::vector<SelfTime> pb::selfTimes(const std::vector<Span> &Spans) {
  std::unordered_map<uint32_t, std::vector<std::pair<uint64_t, uint64_t>>>
      Children;
  for (const Span &S : Spans)
    if (S.Parent)
      Children[S.Parent].push_back({S.BeginNs, S.EndNs});

  std::map<std::string, SelfTime> ByName;
  for (const Span &S : Spans) {
    uint64_t Dur = S.EndNs > S.BeginNs ? S.EndNs - S.BeginNs : 0;
    uint64_t Covered = 0;
    auto It = Children.find(S.Id);
    if (It != Children.end()) {
      auto &Iv = It->second;
      std::sort(Iv.begin(), Iv.end());
      uint64_t CurB = 0, CurE = 0;
      bool Open = false;
      for (auto [B, E] : Iv) {
        B = std::max(B, S.BeginNs);
        E = std::min(E, S.EndNs);
        if (E <= B)
          continue;
        if (Open && B <= CurE) {
          CurE = std::max(CurE, E);
          continue;
        }
        if (Open)
          Covered += CurE - CurB;
        CurB = B;
        CurE = E;
        Open = true;
      }
      if (Open)
        Covered += CurE - CurB;
    }
    SelfTime &T = ByName[S.Name];
    T.Name = S.Name;
    ++T.Count;
    T.TotalUs += static_cast<double>(Dur) / 1e3;
    T.SelfUs += static_cast<double>(Dur - std::min(Dur, Covered)) / 1e3;
  }
  std::vector<SelfTime> Out;
  for (auto &KV : ByName)
    Out.push_back(KV.second);
  return Out;
}

std::vector<PeelRow>
pb::peel(const std::vector<Span> &Spans,
         const std::vector<std::vector<std::string>> &Layers) {
  // Req -> summed root-span duration per layer (ns).
  std::map<uint64_t, std::vector<uint64_t>> PerReq;
  std::vector<std::map<uint64_t, bool>> Seen(Layers.size());
  for (const Span &S : Spans) {
    if (S.Parent || !S.Req)
      continue;
    for (size_t L = 0; L < Layers.size(); ++L)
      for (const std::string &N : Layers[L])
        if (N == S.Name) {
          auto &V = PerReq[S.Req];
          V.resize(Layers.size());
          V[L] += S.EndNs > S.BeginNs ? S.EndNs - S.BeginNs : 0;
          Seen[L][S.Req] = true;
        }
  }
  std::vector<PeelRow> Rows(Layers.size());
  for (size_t L = 0; L < Layers.size(); ++L)
    Rows[L].Layer = Layers[L].empty() ? "" : Layers[L][0];
  for (const auto &[Req, V] : PerReq) {
    bool Complete = true;
    for (size_t L = 0; L < Layers.size(); ++L)
      Complete = Complete && Seen[L].count(Req);
    if (!Complete)
      continue;
    for (size_t L = 0; L < Layers.size(); ++L) {
      double Tot = static_cast<double>(V[L]) / 1e3;
      double Inner = L ? static_cast<double>(V[L - 1]) / 1e3 : 0;
      ++Rows[L].Requests;
      Rows[L].MeanTotalUs += Tot;
      Rows[L].MeanSelfUs += Tot - Inner;
    }
  }
  for (PeelRow &R : Rows)
    if (R.Requests) {
      R.MeanTotalUs /= static_cast<double>(R.Requests);
      R.MeanSelfUs /= static_cast<double>(R.Requests);
    }
  return Rows;
}
