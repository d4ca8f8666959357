// cloudcr_serve — the resident simulation service, one process per broker.
//
// Speaks the line-delimited JSON protocol of svc/protocol.hpp over
// stdin/stdout: one request per line in, one response per line out, no
// networking (wrap it in socat/ssh if a transport is needed). Every
// response line is flushed, so interactive pipes work:
//
//   $ printf '%s\n' '{"op":"stats"}' | ./cloudcr_serve
//   {"ok":true,"stats":{...}}
//
// Flags size the caches of the underlying svc::SimService; defaults match
// ServiceOptions. Exits 0 at EOF; a malformed or failing request never
// terminates the loop (its error goes in the response line).

#include <cstdlib>
#include <iostream>
#include <stdexcept>
#include <string>

#include "api/scenario.hpp"
#include "svc/protocol.hpp"
#include "svc/service.hpp"

namespace {

void usage(std::ostream& os) {
  os << "usage: cloudcr_serve [--cache N] [--snapshots N] [--threads N]\n"
        "  --cache N      artifact-cache capacity (LRU entries)\n"
        "  --snapshots N  parked what-if engines (LRU entries)\n"
        "  --threads N    batch worker threads (0 = hardware)\n"
        "Requests are read from stdin, one JSON object per line; each gets\n"
        "one response line on stdout. See docs/service.md for the grammar.\n";
}

/// A count flag: an unsigned integer. Signed ("-1") or out-of-range input
/// exits 2 instead of wrapping to a huge count.
std::size_t parse_count(const std::string& flag, const char* text) {
  try {
    return static_cast<std::size_t>(
        cloudcr::api::parse_checked_u64(flag, text));
  } catch (const std::invalid_argument& e) {
    std::cerr << "cloudcr_serve: " << e.what() << "\n";
    std::exit(2);
  }
}

}  // namespace

int main(int argc, char** argv) {
  cloudcr::svc::ServiceOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--help" || arg == "-h") {
      usage(std::cout);
      return 0;
    }
    if (arg == "--cache" && has_value) {
      options.cache_capacity = parse_count(arg, argv[++i]);
    } else if (arg == "--snapshots" && has_value) {
      options.snapshot_capacity = parse_count(arg, argv[++i]);
    } else if (arg == "--threads" && has_value) {
      options.threads = parse_count(arg, argv[++i]);
    } else {
      std::cerr << "cloudcr_serve: unknown or incomplete flag '" << arg
                << "'\n";
      usage(std::cerr);
      return 2;
    }
  }
  cloudcr::svc::SimService service(options);
  cloudcr::svc::serve(service, std::cin, std::cout);
  return 0;
}
