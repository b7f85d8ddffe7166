#include "dns/message.hpp"

#include <algorithm>
#include <string_view>
#include <utility>

namespace spfail::dns {

std::string to_string(Rcode rcode) {
  switch (rcode) {
    case Rcode::NoError:
      return "NOERROR";
    case Rcode::FormErr:
      return "FORMERR";
    case Rcode::ServFail:
      return "SERVFAIL";
    case Rcode::NxDomain:
      return "NXDOMAIN";
    case Rcode::NotImp:
      return "NOTIMP";
    case Rcode::Refused:
      return "REFUSED";
  }
  return "RCODE" + std::to_string(static_cast<int>(rcode));
}

Message Message::make_query(std::uint16_t id, const Name& qname, RRType qtype) {
  Message m;
  m.header.id = id;
  m.header.rd = true;
  m.questions.push_back(Question{qname, qtype, RRClass::IN});
  return m;
}

Message Message::make_response(const Message& query, Rcode rcode) {
  Message m;
  m.header.id = query.header.id;
  m.header.qr = true;
  m.header.aa = true;
  m.header.rd = query.header.rd;
  m.header.rcode = rcode;
  m.questions = query.questions;
  return m;
}

namespace {

// RFC 1035 §3.1: a name is at most 255 octets on the wire.
constexpr std::size_t kMaxWireName = 255;

class Encoder {
 public:
  // Sized for a classic 512-octet UDP message and its handful of names, so
  // a query or a typical response never regrows either.
  Encoder() {
    buf_.reserve(512);
    offsets_.reserve(16);
  }

  std::vector<std::uint8_t> take() && { return std::move(buf_); }

  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
    buf_.push_back(static_cast<std::uint8_t>(v));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v >> 16));
    u16(static_cast<std::uint16_t>(v));
  }
  void bytes(const std::uint8_t* data, std::size_t n) {
    buf_.insert(buf_.end(), data, data + n);
  }
  void text(std::string_view s) {
    bytes(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  std::size_t size() const { return buf_.size(); }
  void patch_u16(std::size_t offset, std::uint16_t v) {
    buf_[offset] = static_cast<std::uint8_t>(v >> 8);
    buf_[offset + 1] = static_cast<std::uint8_t>(v);
  }

  // Encode a name with compression against previously written names. The
  // compression keys are the suffixes of names already written, as views
  // into the message's own names (which outlive the encoder); the first
  // writer of a suffix keeps its offset.
  void name(const Name& n) {
    if (n.wire_length() > kMaxWireName) {
      throw WireError("name exceeds 255 octets on encode: " + n.to_string());
    }
    std::string_view rest = n.text();
    for (bool more = !rest.empty(); more;) {
      const auto known = std::find_if(
          offsets_.begin(), offsets_.end(),
          [rest](const auto& entry) { return entry.first == rest; });
      if (known != offsets_.end()) {
        u16(static_cast<std::uint16_t>(0xC000 | known->second));
        return;
      }
      if (size() < 0x3FFF) offsets_.emplace_back(rest, size());
      const std::size_t dot = rest.find('.');
      const std::string_view label = rest.substr(0, dot);
      if (label.empty()) {
        // A zero length octet would end the name early.
        throw WireError("empty label on encode: " + n.to_string());
      }
      if (label.size() > 63) {
        throw WireError("label exceeds 63 octets on encode: " +
                        std::string(label));
      }
      u8(static_cast<std::uint8_t>(label.size()));
      text(label);
      more = dot != std::string_view::npos;
      if (more) rest.remove_prefix(dot + 1);
    }
    u8(0);  // root label
  }

 private:
  std::vector<std::uint8_t> buf_;
  std::vector<std::pair<std::string_view, std::size_t>> offsets_;
};

class Decoder {
 public:
  explicit Decoder(const std::vector<std::uint8_t>& wire) : wire_(wire) {}

  std::uint8_t u8() {
    ensure(1);
    return wire_[pos_++];
  }
  std::uint16_t u16() {
    const std::uint16_t hi = u8();
    return static_cast<std::uint16_t>((hi << 8) | u8());
  }
  std::uint32_t u32() {
    const std::uint32_t hi = u16();
    return (hi << 16) | u16();
  }
  std::string text(std::size_t n) {
    ensure(n);
    std::string out(reinterpret_cast<const char*>(wire_.data() + pos_), n);
    pos_ += n;
    return out;
  }

  std::size_t pos() const { return pos_; }
  void seek(std::size_t p) { pos_ = p; }
  std::size_t remaining() const { return wire_.size() - pos_; }

  // Labels are appended to the name's text as they are read; lenient()
  // lowercases it in place and drops a trailing dot, which a label holding
  // '.' can leave.
  Name name() {
    std::string text;
    std::size_t octets = 1;  // the terminating root label
    std::size_t jumps = 0;
    std::size_t return_pos = 0;
    bool jumped = false;
    while (true) {
      const std::uint8_t len = u8();
      if (len == 0) break;
      if ((len & 0xC0) == 0xC0) {
        if (++jumps > 64) throw WireError("compression pointer loop");
        const std::size_t target =
            (static_cast<std::size_t>(len & 0x3F) << 8) | u8();
        if (target >= wire_.size()) throw WireError("pointer past end");
        if (!jumped) {
          return_pos = pos_;
          jumped = true;
        }
        seek(target);
        continue;
      }
      if ((len & 0xC0) != 0) throw WireError("reserved label type");
      octets += 1 + len;
      if (octets > kMaxWireName) throw WireError("name exceeds 255 octets");
      ensure(len);
      if (!text.empty()) text.push_back('.');
      text.append(reinterpret_cast<const char*>(wire_.data() + pos_), len);
      pos_ += len;
    }
    if (jumped) seek(return_pos);
    return Name::lenient(std::move(text));
  }

  void ensure(std::size_t n) const {
    if (pos_ + n > wire_.size()) throw WireError("truncated message");
  }

 private:
  const std::vector<std::uint8_t>& wire_;
  std::size_t pos_ = 0;
};

void encode_rr(Encoder& enc, const ResourceRecord& rr) {
  enc.name(rr.name);
  enc.u16(static_cast<std::uint16_t>(rr.type));
  enc.u16(static_cast<std::uint16_t>(rr.rrclass));
  enc.u32(rr.ttl);
  const std::size_t rdlength_at = enc.size();
  enc.u16(0);  // placeholder
  const std::size_t rdata_start = enc.size();

  std::visit(
      [&](const auto& rdata) {
        using T = std::decay_t<decltype(rdata)>;
        if constexpr (std::is_same_v<T, ARdata>) {
          enc.bytes(rdata.address.bytes().data(), 4);
        } else if constexpr (std::is_same_v<T, AaaaRdata>) {
          enc.bytes(rdata.address.bytes().data(), 16);
        } else if constexpr (std::is_same_v<T, MxRdata>) {
          enc.u16(rdata.preference);
          enc.name(rdata.exchange);
        } else if constexpr (std::is_same_v<T, TxtRdata>) {
          for (const auto& s : rdata.strings) {
            if (s.size() > 255) throw WireError("TXT string exceeds 255 octets");
            enc.u8(static_cast<std::uint8_t>(s.size()));
            enc.text(s);
          }
        } else if constexpr (std::is_same_v<T, CnameRdata>) {
          enc.name(rdata.target);
        } else if constexpr (std::is_same_v<T, NsRdata>) {
          enc.name(rdata.nameserver);
        } else if constexpr (std::is_same_v<T, SoaRdata>) {
          enc.name(rdata.mname);
          enc.name(rdata.rname);
          enc.u32(rdata.serial);
          enc.u32(rdata.refresh);
          enc.u32(rdata.retry);
          enc.u32(rdata.expire);
          enc.u32(rdata.minimum);
        } else if constexpr (std::is_same_v<T, PtrRdata>) {
          enc.name(rdata.target);
        } else if constexpr (std::is_same_v<T, OpaqueRdata>) {
          enc.bytes(rdata.bytes.data(), rdata.bytes.size());
        }
      },
      rr.rdata);

  enc.patch_u16(rdlength_at,
                static_cast<std::uint16_t>(enc.size() - rdata_start));
}

ResourceRecord decode_rr(Decoder& dec) {
  ResourceRecord rr;
  rr.name = dec.name();
  rr.type = static_cast<RRType>(dec.u16());
  rr.rrclass = static_cast<RRClass>(dec.u16());
  rr.ttl = dec.u32();
  const std::uint16_t rdlength = dec.u16();
  dec.ensure(rdlength);
  const std::size_t rdata_end = dec.pos() + rdlength;

  switch (rr.type) {
    case RRType::A: {
      if (rdlength != 4) throw WireError("A rdata must be 4 octets");
      const std::string raw = dec.text(4);
      rr.rdata = ARdata{util::IpAddress::v4(
          static_cast<std::uint8_t>(raw[0]), static_cast<std::uint8_t>(raw[1]),
          static_cast<std::uint8_t>(raw[2]), static_cast<std::uint8_t>(raw[3]))};
      break;
    }
    case RRType::AAAA: {
      if (rdlength != 16) throw WireError("AAAA rdata must be 16 octets");
      const std::string raw = dec.text(16);
      std::array<std::uint8_t, 16> bytes{};
      for (std::size_t i = 0; i < 16; ++i) {
        bytes[i] = static_cast<std::uint8_t>(raw[i]);
      }
      rr.rdata = AaaaRdata{util::IpAddress::v6(bytes)};
      break;
    }
    case RRType::MX: {
      MxRdata mx;
      mx.preference = dec.u16();
      mx.exchange = dec.name();
      rr.rdata = mx;
      break;
    }
    case RRType::TXT: {
      TxtRdata txt;
      while (dec.pos() < rdata_end) {
        const std::uint8_t len = dec.u8();
        txt.strings.push_back(dec.text(len));
      }
      rr.rdata = txt;
      break;
    }
    case RRType::CNAME:
      rr.rdata = CnameRdata{dec.name()};
      break;
    case RRType::NS:
      rr.rdata = NsRdata{dec.name()};
      break;
    case RRType::PTR:
      rr.rdata = PtrRdata{dec.name()};
      break;
    case RRType::SOA: {
      SoaRdata soa;
      soa.mname = dec.name();
      soa.rname = dec.name();
      soa.serial = dec.u32();
      soa.refresh = dec.u32();
      soa.retry = dec.u32();
      soa.expire = dec.u32();
      soa.minimum = dec.u32();
      rr.rdata = soa;
      break;
    }
    default: {
      OpaqueRdata opaque;
      const std::string raw = dec.text(rdlength);
      opaque.bytes.assign(raw.begin(), raw.end());
      rr.rdata = opaque;
      break;
    }
  }
  if (dec.pos() != rdata_end) throw WireError("rdata length mismatch");
  return rr;
}

}  // namespace

std::vector<std::uint8_t> encode(const Message& message) {
  Encoder enc;
  enc.u16(message.header.id);
  std::uint16_t flags = 0;
  if (message.header.qr) flags |= 0x8000;
  flags |= static_cast<std::uint16_t>(
      (static_cast<unsigned>(message.header.opcode) & 0xF) << 11);
  if (message.header.aa) flags |= 0x0400;
  if (message.header.tc) flags |= 0x0200;
  if (message.header.rd) flags |= 0x0100;
  if (message.header.ra) flags |= 0x0080;
  flags |= static_cast<std::uint16_t>(
      static_cast<unsigned>(message.header.rcode) & 0xF);
  enc.u16(flags);
  enc.u16(static_cast<std::uint16_t>(message.questions.size()));
  enc.u16(static_cast<std::uint16_t>(message.answers.size()));
  enc.u16(static_cast<std::uint16_t>(message.authorities.size()));
  enc.u16(static_cast<std::uint16_t>(message.additionals.size()));

  for (const auto& q : message.questions) {
    enc.name(q.qname);
    enc.u16(static_cast<std::uint16_t>(q.qtype));
    enc.u16(static_cast<std::uint16_t>(q.qclass));
  }
  for (const auto& rr : message.answers) encode_rr(enc, rr);
  for (const auto& rr : message.authorities) encode_rr(enc, rr);
  for (const auto& rr : message.additionals) encode_rr(enc, rr);
  return std::move(enc).take();
}

Message decode(const std::vector<std::uint8_t>& wire) {
  Decoder dec(wire);
  Message m;
  m.header.id = dec.u16();
  const std::uint16_t flags = dec.u16();
  m.header.qr = (flags & 0x8000) != 0;
  m.header.opcode = static_cast<Opcode>((flags >> 11) & 0xF);
  m.header.aa = (flags & 0x0400) != 0;
  m.header.tc = (flags & 0x0200) != 0;
  m.header.rd = (flags & 0x0100) != 0;
  m.header.ra = (flags & 0x0080) != 0;
  m.header.rcode = static_cast<Rcode>(flags & 0xF);
  const std::uint16_t qd = dec.u16();
  const std::uint16_t an = dec.u16();
  const std::uint16_t ns = dec.u16();
  const std::uint16_t ar = dec.u16();

  for (int i = 0; i < qd; ++i) {
    Question q;
    q.qname = dec.name();
    q.qtype = static_cast<RRType>(dec.u16());
    q.qclass = static_cast<RRClass>(dec.u16());
    m.questions.push_back(std::move(q));
  }
  for (int i = 0; i < an; ++i) m.answers.push_back(decode_rr(dec));
  for (int i = 0; i < ns; ++i) m.authorities.push_back(decode_rr(dec));
  for (int i = 0; i < ar; ++i) m.additionals.push_back(decode_rr(dec));
  if (dec.remaining() != 0) throw WireError("trailing bytes after message");
  return m;
}

}  // namespace spfail::dns
