// DNS resource records and rdata (RFC 1035, RFC 3596).
//
// Only the types the SPF ecosystem touches get first-class rdata
// representations: A, AAAA, MX, TXT, CNAME, NS, SOA. Everything else can be
// carried opaquely.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "dns/name.hpp"
#include "util/ip.hpp"

namespace spfail::dns {

enum class RRType : std::uint16_t {
  A = 1,
  NS = 2,
  CNAME = 5,
  SOA = 6,
  PTR = 12,
  MX = 15,
  TXT = 16,
  AAAA = 28,
  ANY = 255,
};

enum class RRClass : std::uint16_t { IN = 1 };

std::string to_string(RRType type);

// A (name, type) key: the stub, forwarder and recursive answer caches and
// the transport's fault-attempt counters are maps of these. NameTypeRef
// borrows the name's text, so find() copies no key.
struct NameTypeRef {
  std::string_view name;
  RRType type = RRType::A;
  friend bool operator==(const NameTypeRef&, const NameTypeRef&) = default;
};

struct NameType {
  Name name;
  RRType type = RRType::A;
  operator NameTypeRef() const noexcept { return {name.text(), type}; }
  friend bool operator==(const NameType&, const NameType&) = default;
};

struct NameTypeHash {
  using is_transparent = void;
  std::size_t operator()(const NameTypeRef& key) const noexcept {
    return std::hash<std::string_view>{}(key.name) ^
           static_cast<std::size_t>(key.type);
  }
};

template <typename Value>
using NameTypeMap =
    std::unordered_map<NameType, Value, NameTypeHash, std::equal_to<>>;

struct ARdata {
  util::IpAddress address;  // must be v4
  friend bool operator==(const ARdata&, const ARdata&) = default;
};

struct AaaaRdata {
  util::IpAddress address;  // must be v6
  friend bool operator==(const AaaaRdata&, const AaaaRdata&) = default;
};

struct MxRdata {
  std::uint16_t preference = 0;
  Name exchange;
  friend bool operator==(const MxRdata&, const MxRdata&) = default;
};

// A TXT record is a sequence of <=255-octet character strings; SPF policies
// longer than 255 octets are split across strings and re-concatenated by the
// validator (RFC 7208 section 3.3).
struct TxtRdata {
  std::vector<std::string> strings;

  // The concatenation the SPF validator sees.
  std::string joined() const;
  // Split `text` into 255-octet chunks.
  static TxtRdata from_text(std::string_view text);

  friend bool operator==(const TxtRdata&, const TxtRdata&) = default;
};

struct CnameRdata {
  Name target;
  friend bool operator==(const CnameRdata&, const CnameRdata&) = default;
};

struct NsRdata {
  Name nameserver;
  friend bool operator==(const NsRdata&, const NsRdata&) = default;
};

struct SoaRdata {
  Name mname;
  Name rname;
  std::uint32_t serial = 0;
  std::uint32_t refresh = 0;
  std::uint32_t retry = 0;
  std::uint32_t expire = 0;
  std::uint32_t minimum = 0;
  friend bool operator==(const SoaRdata&, const SoaRdata&) = default;
};

struct PtrRdata {
  Name target;
  friend bool operator==(const PtrRdata&, const PtrRdata&) = default;
};

struct OpaqueRdata {
  std::vector<std::uint8_t> bytes;
  friend bool operator==(const OpaqueRdata&, const OpaqueRdata&) = default;
};

using Rdata = std::variant<ARdata, AaaaRdata, MxRdata, TxtRdata, CnameRdata,
                           NsRdata, SoaRdata, PtrRdata, OpaqueRdata>;

struct ResourceRecord {
  Name name;
  RRType type = RRType::A;
  RRClass rrclass = RRClass::IN;
  std::uint32_t ttl = 300;
  Rdata rdata;

  friend bool operator==(const ResourceRecord&, const ResourceRecord&) = default;

  // Convenience factories used pervasively by zone setup and tests.
  static ResourceRecord a(const Name& name, util::IpAddress ip,
                          std::uint32_t ttl = 300);
  static ResourceRecord aaaa(const Name& name, util::IpAddress ip,
                             std::uint32_t ttl = 300);
  static ResourceRecord mx(const Name& name, std::uint16_t pref,
                           const Name& exchange, std::uint32_t ttl = 300);
  static ResourceRecord txt(const Name& name, std::string_view text,
                            std::uint32_t ttl = 300);
  static ResourceRecord cname(const Name& name, const Name& target,
                              std::uint32_t ttl = 300);
};

}  // namespace spfail::dns
