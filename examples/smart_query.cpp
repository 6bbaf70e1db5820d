// Smart-query demo: database operations offloaded to the storage node.
//
// The paper's future work asks for "extensibility of data-processing
// modules and operations (i.e. data-intensive applications and database
// operations) that are preloaded into McSD smart-disk nodes".  This demo
// runs a three-stage query pipeline entirely on the storage node through
// smartFAM — only row counts and file paths cross the channel:
//
//   orders.csv ── select(amount > 400) ──► big_orders.csv
//   big_orders ── join(users on id)    ──► named_orders.csv
//   named      ── sort(lines)          ──► report.csv
//
// Build & run:  ./build/examples/smart_query
#include <chrono>
#include <cstdio>

#include "apps/modules.hpp"
#include "core/io.hpp"
#include "core/random.hpp"
#include "fam/client.hpp"
#include "fam/daemon.hpp"

using namespace mcsd;
using namespace std::chrono_literals;

namespace {

/// Synthesises users(id,name) and orders(order_id,user_id,amount).
void make_tables(const std::filesystem::path& dir) {
  Rng rng{2012};
  std::string users;
  constexpr int kUsers = 200;
  for (int u = 0; u < kUsers; ++u) {
    users += std::to_string(u) + ",user" + std::to_string(u) + "\n";
  }
  std::string orders;
  for (int o = 0; o < 5000; ++o) {
    orders += "o" + std::to_string(o) + "," +
              std::to_string(rng.next_below(kUsers)) + "," +
              std::to_string(rng.next_below(1000)) + "\n";
  }
  (void)write_file(dir / "users.csv", users);
  (void)write_file(dir / "orders.csv", orders);
}

bool run_stage(fam::Client& client, const char* module,
               const KeyValueMap& params, const char* describe) {
  const auto result = client.invoke(module, params);
  if (!result.is_ok()) {
    std::fprintf(stderr, "%s failed: %s\n", module,
                 result.error().to_string().c_str());
    return false;
  }
  std::printf("[sd] %-6s %s ->", module, describe);
  for (const auto& [key, value] : result.value().entries()) {
    std::printf(" %s=%s", key.c_str(), value.c_str());
  }
  std::puts("");
  return true;
}

}  // namespace

int main() {
  TempDir shared{"smart-query"};
  make_tables(shared.path());

  fam::Daemon daemon{fam::DaemonOptions{shared.path(), 1}};
  if (Status s = apps::preload_standard_modules(
          [&daemon](auto m) { return daemon.preload(std::move(m)); }, 2);
      !s) {
    std::fprintf(stderr, "preload: %s\n", s.to_string().c_str());
    return 1;
  }
  daemon.start();
  std::puts("[sd] daemon up; database-operation modules preloaded\n");

  fam::Client client{fam::ClientOptions{shared.path(), 2ms, 30'000ms}};

  // Stage 1: select orders with amount > 400.
  KeyValueMap select;
  select.set("input", (shared / "orders.csv").string());
  select.set_int("column", 2);
  select.set("op", "gt");
  select.set("value", "400");
  select.set("out", (shared / "big_orders.csv").string());
  if (!run_stage(client, "select", select, "orders where amount > 400")) {
    return 1;
  }

  // Stage 2: join with users on user id.
  KeyValueMap join;
  join.set("left", (shared / "users.csv").string());
  join.set("right", (shared / "big_orders.csv").string());
  join.set_int("left_column", 0);
  join.set_int("right_column", 1);
  join.set("out", (shared / "named_orders.csv").string());
  if (!run_stage(client, "join", join, "attach user names")) return 1;

  // Stage 3: sort the report.
  KeyValueMap sort;
  sort.set("input", (shared / "named_orders.csv").string());
  sort.set("out", (shared / "report.csv").string());
  sort.set_int("memory_budget", 64 * 1024);
  if (!run_stage(client, "sort", sort, "order the report")) return 1;

  const auto report = read_file(shared / "report.csv");
  if (report.is_ok()) {
    std::puts("\n[host] first lines of the final report:");
    std::size_t shown = 0;
    std::size_t pos = 0;
    const std::string& text = report.value();
    while (shown < 5 && pos < text.size()) {
      const auto eol = text.find('\n', pos);
      std::printf("   %s\n",
                  text.substr(pos, eol - pos).c_str());
      pos = (eol == std::string::npos) ? text.size() : eol + 1;
      ++shown;
    }
  }
  std::puts("\n[host] the full tables never crossed the host/SD boundary —"
            "\n       only module parameters, counts, and the final report.");
  return 0;
}
