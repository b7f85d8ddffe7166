#include "session/flag_registry.hpp"

#include "scenario/scenario.hpp"
#include "session/flag_parse.hpp"

namespace spfail::session {

namespace {

constexpr FlagDef kFlags[] = {
    {"--scale", "SPFAIL_SCALE", "RATE", "0.05",
     "population scale in (0, 1]: fraction of the full study fleet to build",
     [](ScanConfig& c, std::string_view what, const char* text) {
       c.scale = parse_double(what, text);
     }},
    {"--seed", nullptr, "SEED", "2021",
     "fleet generation seed (the study seed is fixed by the paper)",
     [](ScanConfig& c, std::string_view what, const char* text) {
       c.fleet_seed = parse_u64(what, text);
     }},
    {"--scenario", "SPFAIL_SCENARIO", "NAMES", "(none)",
     "comma-separated scenario specs to stage and measure "
     "(baseline, forwarding, alignment, misconfig); specs compose",
     [](ScanConfig& c, std::string_view, const char* text) {
       c.scenario = text;
     }},
    {"--threads", nullptr, "N", "0 (auto)",
     "scan worker threads; 0 defers to SPFAIL_THREADS / hardware",
     [](ScanConfig& c, std::string_view what, const char* text) {
       c.threads = parse_int(what, text);
     }},
    {"--initial-only", nullptr, nullptr, "off",
     "run only the initial scan, skipping the longitudinal study",
     [](ScanConfig& c, std::string_view what, const char* text) {
       c.initial_only = switch_on(what, text);
     }},
    {"--fault-rate", "SPFAIL_FAULT_RATE", "RATE", "0",
     "per-attempt fault-injection probability in [0, 1]; 0 disables the layer",
     [](ScanConfig& c, std::string_view what, const char* text) {
       c.faults.rate = parse_double(what, text);
     }},
    {"--fault-seed", "SPFAIL_FAULT_SEED", "SEED", "0xFA171",
     "fault-injection RNG seed",
     [](ScanConfig& c, std::string_view what, const char* text) {
       c.faults.seed = parse_u64(what, text);
     }},
    {"--csv", "SPFAIL_CSV_DIR", "DIR", "(off)",
     "write the paper tables as CSV files into DIR",
     [](ScanConfig& c, std::string_view, const char* text) {
       c.csv_dir = text;
     }},
    {"--trace", "SPFAIL_TRACE", "PATH", "(off)",
     "write the deterministic event trace (JSONL) to PATH",
     [](ScanConfig& c, std::string_view, const char* text) {
       c.trace_path = text;
     }},
    {"--metrics", "SPFAIL_METRICS", "PATH", "(off)",
     "write per-round metrics JSONL to PATH and Prometheus text to PATH.prom",
     [](ScanConfig& c, std::string_view, const char* text) {
       c.metrics_path = text;
     }},
    {"--metrics-wall", "SPFAIL_METRICS_WALL", nullptr, "off",
     "add the opt-in wall-clock lane to the metrics files",
     [](ScanConfig& c, std::string_view what, const char* text) {
       c.metrics_wall = switch_on(what, text);
     }},
    {"--checkpoint", nullptr, "PATH", "(off)",
     "write round-boundary study checkpoints to PATH",
     [](ScanConfig& c, std::string_view, const char* text) {
       c.checkpoint_path = text;
     }},
    {"--checkpoint-every", nullptr, "N", "1",
     "checkpoint cadence in longitudinal rounds",
     [](ScanConfig& c, std::string_view what, const char* text) {
       c.checkpoint_every = parse_int(what, text);
     }},
    {"--resume", nullptr, "PATH", "(off)",
     "resume the study from a checkpoint written by --checkpoint",
     [](ScanConfig& c, std::string_view, const char* text) {
       c.resume_path = text;
     }},
    {"--halt-after-rounds", nullptr, "N", "-1 (run to completion)",
     "stop after N longitudinal rounds, writing a final checkpoint",
     [](ScanConfig& c, std::string_view what, const char* text) {
       c.halt_after_rounds = parse_int(what, text);
     }},
};

}  // namespace

std::span<const FlagDef> flag_registry() { return kFlags; }

const FlagDef* find_flag(std::string_view flag) {
  return find_flag_in(flag_registry(), flag);
}

std::string flag_table_markdown() {
  return flag_table_markdown_for(flag_registry());
}

}  // namespace spfail::session
