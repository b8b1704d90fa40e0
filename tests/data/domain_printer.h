#ifndef LEAPME_TESTS_DATA_DOMAIN_PRINTER_H_
#define LEAPME_TESTS_DATA_DOMAIN_PRINTER_H_

#include <ostream>

#include "data/domain.h"

namespace leapme::data {

// gtest prints a TEST_P parameter after each test's name. Its default for a
// pointer is the address, which address-space randomisation moves on every
// run; printing the domain's name keeps the test names stable.
inline void PrintTo(const DomainSpec* domain, std::ostream* os) {
  *os << domain->name;
}

}  // namespace leapme::data

#endif  // LEAPME_TESTS_DATA_DOMAIN_PRINTER_H_
