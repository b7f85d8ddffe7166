// dns::Name against a reference model of the label-vector semantics it
// replaced: a name is the vector of its labels, split on '.', lowercased,
// ordered label by label. Over a seeded corpus of awkward names (mixed case,
// digits, '-', '_', macro text, empty labels, labels of 63, 64 and 300
// octets) every accessor must agree with the model, and the snapshot field
// codec must round-trip every name exactly.
//
// Two shapes the one-string form cannot hold are pinned in EdgeCases: a
// lone empty label is the root, and a child label holding '.' is several
// labels.
#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <numeric>
#include <string>
#include <string_view>
#include <vector>

#include "dns/name.hpp"
#include "snapshot/fields.hpp"
#include "util/rng.hpp"

namespace spfail::dns {
namespace {

// ------------------------------------------------------------ reference

using Labels = std::vector<std::string>;

std::string lower(std::string_view s) {
  std::string out(s);
  for (char& c : out) {
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
  }
  return out;
}

// The one shape the string form merges: a lone empty label is the root.
Labels canonical(Labels labels) {
  if (labels.size() == 1 && labels[0].empty()) labels.clear();
  return labels;
}

Labels split_lower(std::string_view text) {
  Labels out;
  std::size_t start = 0;
  while (true) {
    const std::size_t dot = text.find('.', start);
    out.push_back(lower(text.substr(start, dot - start)));
    if (dot == std::string_view::npos) return out;
    start = dot + 1;
  }
}

// The lenient parse: "" and "." are the root, one trailing dot is dropped.
Labels ref_lenient(std::string_view text) {
  if (text.empty() || text == ".") return {};
  if (text.back() == '.') text.remove_suffix(1);
  return canonical(split_lower(text));
}

std::string ref_join(const Labels& labels) {
  std::string out;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i > 0) out.push_back('.');
    out += labels[i];
  }
  return out;
}

std::string ref_to_string(const Labels& labels) {
  return labels.empty() ? "." : ref_join(labels);
}

bool ref_under(const Labels& name, const Labels& suffix) {
  if (suffix.size() > name.size()) return false;
  return std::equal(suffix.begin(), suffix.end(),
                    name.end() - static_cast<std::ptrdiff_t>(suffix.size()));
}

Labels labels_of(const LabelRange& range) {
  return Labels(range.begin(), range.end());
}

// The Name holding exactly `labels`: lenient() drops the one dot appended,
// so a trailing empty label survives.
Name from_labels(const Labels& labels) {
  return Name::lenient(ref_join(labels) + ".");
}

// ------------------------------------------------------------ corpus

std::string draw_label(util::Rng& rng) {
  switch (rng.uniform(0, 11)) {
    case 0:
      return "";
    case 1:
      return "%{d1r}";
    case 2:
      return std::string(63, 'a');
    case 3:
      return std::string(64, 'B');
    case 4:
      return std::string(300, 'c');
    case 5:
      return "_dmarc";
    case 6:
      return "b";
    default: {
      static constexpr std::string_view kAlphabet =
          "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789-_";
      std::string label;
      const std::size_t n = rng.uniform(1, 12);
      for (std::size_t i = 0; i < n; ++i) {
        label.push_back(kAlphabet[rng.uniform(0, kAlphabet.size() - 1)]);
      }
      return label;
    }
  }
}

// Texts of up to eight labels, most under a few shared suffixes (so suffix
// checks and relative labels see both outcomes), some with a trailing dot.
std::vector<std::string> corpus(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  const std::vector<std::string> bases = {"spf-test.dns-lab.org",
                                          "Example.COM", "com", "",
                                          "x.%{d1r}.Spf-Test.dns-lab.org"};
  std::vector<std::string> texts = {"", ".", "..", "a.", "a..", ".com"};
  while (texts.size() < n) {
    std::string text;
    const std::size_t labels = rng.uniform(0, 4);
    for (std::size_t i = 0; i < labels; ++i) {
      if (i > 0) text.push_back('.');
      text += draw_label(rng);
    }
    const std::string& base = rng.pick(bases);
    if (!base.empty() && rng.bernoulli(0.6)) {
      text = text.empty() ? base : text + "." + base;
    }
    if (rng.bernoulli(0.1)) text.push_back('.');
    texts.push_back(std::move(text));
  }
  return texts;
}

constexpr std::size_t kCorpusSize = 2400;

struct Pair {
  Name name;
  Labels ref;
};

std::vector<Pair> model_corpus() {
  std::vector<Pair> out;
  for (const std::string& text : corpus(0x4E414D45, kCorpusSize)) {
    out.push_back(Pair{Name::lenient(text), ref_lenient(text)});
  }
  return out;
}

// ------------------------------------------------------------ tests

TEST(NameModel, EqualityAndOrderMatchLabelVectors) {
  const std::vector<Pair> items = model_corpus();
  ASSERT_GE(items.size(), 2000u);

  // Sorted order: both sorts, with the corpus index breaking ties, must
  // produce the same permutation.
  std::vector<std::size_t> by_name(items.size());
  std::iota(by_name.begin(), by_name.end(), 0);
  std::vector<std::size_t> by_ref = by_name;
  std::sort(by_name.begin(), by_name.end(), [&](std::size_t a, std::size_t b) {
    const auto order = items[a].name <=> items[b].name;
    return order != 0 ? order < 0 : a < b;
  });
  std::sort(by_ref.begin(), by_ref.end(), [&](std::size_t a, std::size_t b) {
    const auto order = items[a].ref <=> items[b].ref;
    return order != 0 ? order < 0 : a < b;
  });
  EXPECT_EQ(by_name, by_ref);

  // Random pairs, plus every neighbour in sorted order (where equal names
  // sit together).
  util::Rng rng(7);
  const auto check_pair = [&](std::size_t a, std::size_t b) {
    const Pair& x = items[a];
    const Pair& y = items[b];
    EXPECT_EQ(x.name == y.name, x.ref == y.ref)
        << ref_join(x.ref) << " vs " << ref_join(y.ref);
    EXPECT_EQ(x.name <=> y.name, x.ref <=> y.ref)
        << ref_join(x.ref) << " vs " << ref_join(y.ref);
  };
  for (int i = 0; i < 20000; ++i) {
    check_pair(rng.uniform(0, items.size() - 1),
               rng.uniform(0, items.size() - 1));
  }
  for (std::size_t i = 1; i < by_ref.size(); ++i) {
    check_pair(by_ref[i - 1], by_ref[i]);
  }
}

TEST(NameModel, AccessorsMatchLabelVectors) {
  const std::vector<Pair> items = model_corpus();
  util::Rng rng(11);
  for (const Pair& item : items) {
    const Name& name = item.name;
    const Labels& ref = item.ref;
    SCOPED_TRACE(ref_to_string(ref));

    EXPECT_EQ(name.empty(), ref.empty());
    EXPECT_EQ(name.label_count(), ref.size());
    EXPECT_EQ(labels_of(name.labels()), ref);
    EXPECT_EQ(name.to_string(), ref_to_string(ref));
    EXPECT_EQ(name.tld(), ref.empty() ? std::string() : ref.back());

    const Labels parent =
        ref.size() > 1 ? canonical(Labels(ref.begin() + 1, ref.end()))
                       : Labels{};
    EXPECT_EQ(labels_of(name.parent().labels()), parent);

    std::string label = draw_label(rng);
    label.erase(std::remove(label.begin(), label.end(), '.'), label.end());
    Labels child = ref;
    child.insert(child.begin(), lower(label));
    EXPECT_EQ(labels_of(name.child(label).labels()), canonical(child));

    // Suffix checks against the name's own suffixes and a random name.
    for (std::size_t k = 0; k <= ref.size(); ++k) {
      const Labels suffix = canonical(
          Labels(ref.end() - static_cast<std::ptrdiff_t>(k), ref.end()));
      const Name suffix_name = from_labels(suffix);
      ASSERT_EQ(labels_of(suffix_name.labels()), suffix);
      EXPECT_TRUE(name.is_subdomain_of(suffix_name));
      EXPECT_EQ(labels_of(name.labels_relative_to(suffix_name)),
                Labels(ref.begin(),
                       ref.end() - static_cast<std::ptrdiff_t>(suffix.size())));
    }
    const Pair& other = items[rng.uniform(0, items.size() - 1)];
    const bool under = ref_under(ref, other.ref);
    EXPECT_EQ(name.is_subdomain_of(other.name), under)
        << "under " << ref_to_string(other.ref);
    if (under) {
      const auto rest =
          ref.end() - static_cast<std::ptrdiff_t>(other.ref.size());
      EXPECT_EQ(labels_of(name.labels_relative_to(other.name)),
                Labels(ref.begin(), rest));
    } else {
      EXPECT_THROW(name.labels_relative_to(other.name), std::invalid_argument);
    }
  }
}

TEST(NameModel, StrictParseMatchesReference) {
  for (const std::string& text : corpus(0x535452, kCorpusSize)) {
    std::string_view body = text;
    bool valid = true;
    if (!body.empty() && body != ".") {
      if (body.back() == '.') body.remove_suffix(1);
      valid = body.size() <= 253;
      for (const std::string& label : split_lower(body)) {
        valid = valid && !label.empty() && label.size() <= 63;
      }
    }
    if (valid) {
      EXPECT_EQ(Name::from_string(text), Name::lenient(text)) << text;
    } else {
      EXPECT_THROW(Name::from_string(text), std::invalid_argument) << text;
    }
  }
}

TEST(NameModel, SnapshotFieldRoundTripMatchesReference) {
  for (const Pair& item : model_corpus()) {
    scan::ProbeResult result;
    result.mail_from_domain = item.name;
    snapshot::Writer writer;
    snapshot::put_probe_result(writer, result);
    snapshot::Reader reader(writer.bytes());
    const scan::ProbeResult back = snapshot::get_probe_result(reader);

    // The field holds the name's text ("" for the root) and reads back as
    // the same name, a trailing empty label included, so the decoded result
    // re-encodes to the same bytes.
    EXPECT_EQ(labels_of(back.mail_from_domain.labels()), item.ref)
        << ref_to_string(item.ref);
    EXPECT_EQ(back.mail_from_domain, item.name) << ref_to_string(item.ref);
    snapshot::Writer again;
    snapshot::put_probe_result(again, back);
    EXPECT_EQ(again.bytes(), writer.bytes()) << ref_to_string(item.ref);
  }
}

TEST(NameModel, EdgeCases) {
  // A lone empty label cannot be told from the root.
  EXPECT_EQ(Name::root().child(""), Name::root());
  EXPECT_TRUE(Name::root().child("").empty());
  EXPECT_EQ(Name::lenient("a..").parent(), Name::root());

  // A child label holding '.' becomes several labels, as the wire makes it.
  const Name selector = Name::from_string("example.com").child("Sel.2024");
  EXPECT_EQ(selector.label_count(), 4u);
  EXPECT_EQ(labels_of(selector.labels()),
            (Labels{"sel", "2024", "example", "com"}));
  EXPECT_EQ(selector, Name::from_string("sel.2024.example.com"));

  // Label-wise, not bytewise, order: '-' < '.' in bytes.
  EXPECT_LT(Name::from_string("ab.c"), Name::from_string("ab-x.c"));
  EXPECT_LT(Name::root(), Name::lenient(".a"));
  EXPECT_LT(Name::lenient(".a"), Name::lenient("a"));
}

}  // namespace
}  // namespace spfail::dns
