#include "common.h"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "xpdl/runtime/model.h"

extern char** environ;

namespace perfbench {

namespace fs = std::filesystem;

void die(const std::string& msg) {
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: error: %s\n", msg.c_str());
  std::exit(1);
}

double now_ms() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto lo = static_cast<std::size_t>(std::floor(pos));
  std::size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

RunFigures run_figures(const std::vector<double>& latency_ms,
                       const std::vector<double>& end_ms,
                       std::size_t window) {
  const std::size_t n = latency_ms.size();
  if (n < 4 * window) window = n;
  std::vector<double> p50s, p90s, rates;
  double window_start = 0.0;
  for (std::size_t begin = 0; begin + window <= n && window > 0;
       begin += window) {
    auto first = latency_ms.begin() + static_cast<std::ptrdiff_t>(begin);
    std::vector<double> w(first, first + static_cast<std::ptrdiff_t>(window));
    p50s.push_back(quantile(w, 0.50));
    p90s.push_back(quantile(w, 0.90));
    double end = end_ms[begin + window - 1];
    rates.push_back(1e3 * static_cast<double>(window) / (end - window_start));
    window_start = end;
  }
  return {quantile(p50s, 0.10), quantile(p90s, 0.10), quantile(rates, 0.90),
          p50s.size()};
}

void Samples::add(const std::string& name, double value) {
  values_[name].push_back(value);
}

void Samples::append(const Samples& other) {
  for (const auto& [name, vs] : other.values_) {
    auto& dst = values_[name];
    dst.insert(dst.end(), vs.begin(), vs.end());
  }
}

const std::vector<double>* Samples::find(const std::string& name) const {
  auto it = values_.find(name);
  return it == values_.end() ? nullptr : &it->second;
}

std::size_t Samples::count(const std::string& name) const {
  const auto* v = find(name);
  return v == nullptr ? 0 : v->size();
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit, std::size_t samples) {
  require(std::isfinite(value), "metric '" + name + "' is not finite");
  metrics_.push_back({name, value, unit});
  note(name, value, unit, samples);
}

void Report::note(const std::string& name, double value,
                  const std::string& unit, std::size_t samples,
                  const std::string& comment) {
  std::printf("perfbench: %s | %-40s = %14.6f %-6s (n=%zu)%s%s\n",
              workload_.c_str(), name.c_str(), value, unit.c_str(), samples,
              comment.empty() ? "" : "  ", comment.c_str());
}

void Report::text(const std::string& line) {
  std::printf("perfbench: %s | %s\n", workload_.c_str(), line.c_str());
}

void Report::finish(bool correct, std::uint64_t attempted,
                    std::uint64_t failed) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics_[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics_[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics_[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

// --- oracle ----------------------------------------------------------------

namespace {

[[nodiscard]] double to_double(const std::string& s, const std::string& where) {
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  require(!s.empty() && end == s.c_str() + s.size(),
          where + ": bad number '" + s + "'");
  return v;
}

[[nodiscard]] std::size_t to_count(const std::string& s,
                                   const std::string& where) {
  double v = to_double(s, where);
  require(v >= 0 && v == std::floor(v), where + ": bad count '" + s + "'");
  return static_cast<std::size_t>(v);
}

}  // namespace

Expected load_expected(const std::string& dir, const std::string& system) {
  std::string path = dir + "/" + system + ".txt";
  std::ifstream in(path);
  require(in.good(), "cannot read oracle " + path);
  Expected e;
  e.system = system;
  std::string line;
  int line_no = 0;
  bool seen_energy = false;
  bool seen_makespan = false;
  while (std::getline(in, line)) {
    ++line_no;
    std::string where = path + ":" + std::to_string(line_no);
    if (auto hash = line.find('#'); hash != std::string::npos &&
                                    line.rfind("query", 0) != 0) {
      line.erase(hash);
    }
    std::istringstream words(line);
    std::string key;
    if (!(words >> key)) continue;
    std::vector<std::string> args;
    if (key == "query") {
      // query <count> <query string to end of line>
      std::string count;
      require(static_cast<bool>(words >> count), where + ": query count");
      std::string q;
      std::getline(words, q);
      q.erase(0, q.find_first_not_of(' '));
      require(!q.empty(), where + ": empty query");
      e.queries.emplace_back(q, to_count(count, where));
      continue;
    }
    for (std::string w; words >> w;) args.push_back(w);
    auto one = [&](const char* what) {
      require(args.size() == 1, where + ": '" + what + "' takes one value");
      return args[0];
    };
    if (key == "elements") {
      e.elements = to_count(one("elements"), where);
    } else if (key == "ids") {
      e.ids = to_count(one("ids"), where);
    } else if (key == "nodes") {
      e.nodes = to_count(one("nodes"), where);
    } else if (key == "cores") {
      e.cores = to_count(one("cores"), where);
    } else if (key == "devices") {
      e.devices = to_count(one("devices"), where);
    } else if (key == "cuda_devices") {
      e.cuda_devices = to_count(one("cuda_devices"), where);
    } else if (key == "static_power_w") {
      e.static_power_w = to_double(one("static_power_w"), where);
    } else if (key == "energy") {
      // energy <energy_j> <time_s> <domains> <state>=<n>...
      require(args.size() >= 4, where + ": energy needs 4+ fields");
      e.energy_j = to_double(args[0], where);
      e.energy_time_s = to_double(args[1], where);
      e.domains = to_count(args[2], where);
      std::size_t total = 0;
      for (std::size_t i = 3; i < args.size(); ++i) {
        auto eq = args[i].find('=');
        require(eq != std::string::npos, where + ": expected state=count");
        std::size_t n = to_count(args[i].substr(eq + 1), where);
        e.energy_states[args[i].substr(0, eq)] += n;
        total += n;
      }
      require(total == e.domains, where + ": state counts != domains");
      seen_energy = true;
    } else if (key == "makespan") {
      e.makespan_s = to_double(one("makespan"), where);
      seen_makespan = true;
    } else if (key == "pareto") {
      // pareto <energy_j>:<time_s>...
      require(!args.empty(), where + ": pareto needs points");
      for (const std::string& p : args) {
        auto colon = p.find(':');
        require(colon != std::string::npos, where + ": expected e:t");
        e.pareto.emplace_back(to_double(p.substr(0, colon), where),
                              to_double(p.substr(colon + 1), where));
      }
    } else {
      die(where + ": unknown key '" + key + "'");
    }
  }
  require(e.elements > 0 && e.nodes > 0 && !e.queries.empty() &&
              seen_energy && seen_makespan,
          path + ": incomplete oracle");
  return e;
}

bool close(double a, double b) {
  return std::fabs(a - b) <= 1e-6 * std::max(std::fabs(a), std::fabs(b)) +
                                 1e-12;
}

std::string check_artifact(const std::string& bytes, const Expected& x) {
  auto model = xpdl::runtime::Model::deserialize(bytes);
  if (!model.is_ok()) {
    return "artifact does not load: " + model.status().to_string();
  }
  auto mismatch = [](const char* what, double got, double want) {
    char buf[160];
    std::snprintf(buf, sizeof buf, "%s is %.10g, expected %.10g", what, got,
                  want);
    return std::string(buf);
  };
  if (model->node_count() != x.nodes) {
    return mismatch("node count", model->node_count(), x.nodes);
  }
  if (model->count_cores() != x.cores) {
    return mismatch("count_cores", model->count_cores(), x.cores);
  }
  if (model->count_devices() != x.devices) {
    return mismatch("count_devices", model->count_devices(), x.devices);
  }
  if (model->count_cuda_devices() != x.cuda_devices) {
    return mismatch("count_cuda_devices", model->count_cuda_devices(),
                    x.cuda_devices);
  }
  if (!close(model->total_static_power_w(), x.static_power_w)) {
    return mismatch("total_static_power_w", model->total_static_power_w(),
                    x.static_power_w);
  }
  return {};
}

// --- JSON reader -------------------------------------------------------------

const JsonValue* JsonValue::get(std::string_view key) const {
  for (const auto& [k, v] : object) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : s_(text) {}

  bool document(JsonValue& out) {
    if (!value(out, 0)) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  void skip_ws() {
    while (pos_ < s_.size() &&
           (s_[pos_] == ' ' || s_[pos_] == '\n' || s_[pos_] == '\r' ||
            s_[pos_] == '\t')) {
      ++pos_;
    }
  }

  bool literal(std::string_view word) {
    if (s_.substr(pos_, word.size()) != word) return false;
    pos_ += word.size();
    return true;
  }

  bool string(std::string& out) {
    if (pos_ >= s_.size() || s_[pos_] != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      char c = s_[pos_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= s_.size()) return false;
      char esc = s_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          // Only ASCII escapes occur in the checked responses; anything
          // else is kept as a placeholder rather than decoded.
          if (pos_ + 4 > s_.size()) return false;
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = s_[pos_++];
            int digit = h >= '0' && h <= '9'   ? h - '0'
                        : h >= 'a' && h <= 'f' ? h - 'a' + 10
                        : h >= 'A' && h <= 'F' ? h - 'A' + 10
                                               : -1;
            if (digit < 0) return false;
            code = (code << 4) | static_cast<unsigned>(digit);
          }
          out += code < 0x80 ? static_cast<char>(code) : '?';
          break;
        }
        default:
          return false;
      }
    }
    return false;
  }

  bool value(JsonValue& out, int depth) {
    if (depth > 64) return false;
    skip_ws();
    if (pos_ >= s_.size()) return false;
    char c = s_[pos_];
    if (c == '{') {
      out.type = JsonValue::Type::kObject;
      ++pos_;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        skip_ws();
        std::string key;
        if (!string(key)) return false;
        skip_ws();
        if (pos_ >= s_.size() || s_[pos_++] != ':') return false;
        JsonValue v;
        if (!value(v, depth + 1)) return false;
        out.object.emplace_back(std::move(key), std::move(v));
        skip_ws();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') { ++pos_; continue; }
        if (s_[pos_] == '}') { ++pos_; return true; }
        return false;
      }
    }
    if (c == '[') {
      out.type = JsonValue::Type::kArray;
      ++pos_;
      skip_ws();
      if (pos_ < s_.size() && s_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        JsonValue v;
        if (!value(v, depth + 1)) return false;
        out.array.push_back(std::move(v));
        skip_ws();
        if (pos_ >= s_.size()) return false;
        if (s_[pos_] == ',') { ++pos_; continue; }
        if (s_[pos_] == ']') { ++pos_; return true; }
        return false;
      }
    }
    if (c == '"') {
      out.type = JsonValue::Type::kString;
      return string(out.string);
    }
    if (literal("true")) {
      out.type = JsonValue::Type::kBool;
      out.boolean = true;
      return true;
    }
    if (literal("false")) {
      out.type = JsonValue::Type::kBool;
      return true;
    }
    if (literal("null")) return true;
    std::size_t start = pos_;
    while (pos_ < s_.size() && s_[pos_] != '\0' &&
           std::strchr("+-0123456789.eE", s_[pos_]) != nullptr) {
      ++pos_;
    }
    if (pos_ == start) return false;
    std::string num(s_.substr(start, pos_ - start));
    char* end = nullptr;
    out.type = JsonValue::Type::kNumber;
    out.number = std::strtod(num.c_str(), &end);
    return end == num.c_str() + num.size();
  }

  std::string_view s_;
  std::size_t pos_ = 0;
};

}  // namespace

bool parse_json(std::string_view text, JsonValue& out) {
  out = JsonValue{};
  return JsonReader(text).document(out);
}

// --- files and processes -----------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  require(in.good(), "cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void write_file(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  require(out.good(), "cannot write " + path);
}

void remove_tree(const std::string& path) {
  std::error_code ec;
  fs::remove_all(path, ec);
  require(!ec, "cannot remove " + path + ": " + ec.message());
}

void copy_models(const std::string& from, const std::string& to) {
  remove_tree(to);
  std::size_t copied = 0;
  for (auto it = fs::recursive_directory_iterator(from);
       it != fs::recursive_directory_iterator(); ++it) {
    if (it->is_directory() && it->path().filename() == ".xpdl.cache") {
      it.disable_recursion_pending();
      continue;
    }
    if (!it->is_regular_file() || it->path().extension() != ".xpdl") continue;
    fs::path dst = fs::path(to) / fs::relative(it->path(), from);
    fs::create_directories(dst.parent_path());
    fs::copy_file(it->path(), dst);
    ++copied;
  }
  require(copied > 0, "no .xpdl descriptors under " + from);
}

std::vector<std::string> list_descriptors(const std::string& dir) {
  std::vector<std::string> out;
  for (const auto& entry : fs::recursive_directory_iterator(dir)) {
    if (entry.is_regular_file() && entry.path().extension() == ".xpdl") {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

ExecResult run_child(const std::vector<std::string>& argv,
                     const std::string& stderr_path,
                     const std::vector<std::string>& extra_env) {
  std::vector<char*> args;
  for (const std::string& a : argv) {
    args.push_back(const_cast<char*>(a.c_str()));
  }
  args.push_back(nullptr);
  std::vector<std::string> env_store;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "XPDL_", 5) != 0) env_store.emplace_back(*e);
  }
  env_store.insert(env_store.end(), extra_env.begin(), extra_env.end());
  std::vector<char*> env;
  for (std::string& e : env_store) env.push_back(e.data());
  env.push_back(nullptr);

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, "/dev/null", O_WRONLY, 0);
  posix_spawn_file_actions_addopen(&actions, 2, stderr_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  ExecResult r;
  double t0 = now_ms();
  pid_t pid = 0;
  int rc = posix_spawn(&pid, args[0], &actions, nullptr, args.data(),
                       env.data());
  posix_spawn_file_actions_destroy(&actions);
  require(rc == 0, "cannot spawn " + argv[0] + ": " + std::strerror(rc));
  int status = 0;
  rusage usage{};
  pid_t waited = 0;
  do {
    waited = wait4(pid, &status, 0, &usage);
  } while (waited < 0 && errno == EINTR);
  r.wall_ms = now_ms() - t0;
  require(waited == pid, "wait4 failed for " + argv[0]);
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  r.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return r;
}

void HostSteal::read(std::uint64_t& total, std::uint64_t& steal) {
  total = steal = 0;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return;
  // user nice system idle iowait irq softirq steal
  for (int field = 0; field < 8; ++field) {
    std::uint64_t ticks = 0;
    if (!(in >> ticks)) return;
    total += ticks;
    if (field == 7) steal = ticks;
  }
}

double HostSteal::percent() const {
  std::uint64_t total = 0, steal = 0;
  read(total, steal);
  if (total <= total_) return 0.0;
  return 100.0 * static_cast<double>(steal - steal_) /
         static_cast<double>(total - total_);
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
