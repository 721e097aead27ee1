// Fixture: must produce ZERO findings even under a numeric-path relpath.
// Mentions of std::rand and std::thread in comments and strings exercise the
// comment/string stripper: "std::rand() is banned" is prose, not code.
#include <cmath>
#include <map>
#include <string>

namespace imap_fixture {

/* block comment naming std::random_device and std::async — not code */
const char* kBanner = "std::thread is banned here";

double clean_fixture(double a, double b) {
  std::map<std::string, double> ordered;  // deterministic iteration is fine
  double total = 0.0;
  for (const auto& kv : ordered) total += kv.second;
  if (std::abs(a - b) <= 1e-9) total += 1.0;      // tolerance compare is fine
  const bool sentinel = (a == 0.0);  // imap-check: allow(float-eq) exact sentinel
  return sentinel ? total : total + b;
}

}  // namespace imap_fixture
