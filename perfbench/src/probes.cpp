// Layer probes: single-thread timings of the crypto primitives and the
// secproto framers at the corpus payload sizes (CANsec 8-59 B, SecOC
// 8-32 B, MACsec 8-60 B, GCM 8-64 B plus 1500 B for throughput). Every
// probe checks its output against a published vector or a decap-after-
// encap round trip, so a fast but wrong primitive fails the run.
#include <algorithm>
#include <functional>
#include <memory>

#include "avsec/core/bytes.hpp"
#include "avsec/crypto/aes.hpp"
#include "avsec/crypto/ed25519.hpp"
#include "avsec/crypto/modes.hpp"
#include "avsec/crypto/x25519.hpp"
#include "avsec/secproto/cansec.hpp"
#include "avsec/secproto/macsec.hpp"
#include "avsec/secproto/secoc.hpp"
#include "avsec/secproto/tls_lite.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace crypto = avsec::crypto;
namespace secproto = avsec::secproto;
using avsec::core::Bytes;
using avsec::core::BytesView;
using avsec::core::from_hex;
using avsec::core::to_hex;

constexpr int kReps = 3;

/// Median over kReps of the host time per call of `body(i)`, in ns.
double ns_per_call(int iters, const std::function<void(int)>& body) {
  std::vector<double> per;
  for (int rep = 0; rep < kReps; ++rep) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < iters; ++i) body(i);
    per.push_back(static_cast<double>(now_ns() - t0) / iters);
  }
  return median(per);
}

class Checker {
 public:
  explicit Checker(Outcome& out) : out_(out) {}
  void expect(bool ok, const std::string& what) {
    if (!ok) out_.errors.push_back("probe " + what + " produced a wrong result");
  }

 private:
  Outcome& out_;
};

Bytes pattern(std::size_t n, std::uint8_t salt) {
  Bytes b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b[i] = static_cast<std::uint8_t>(i * 31 + salt);
  }
  return b;
}

void crypto_probes(Outcome& out, Checker& check) {
  // AES-128, FIPS-197 appendix C.1.
  const crypto::Aes aes(from_hex("000102030405060708090a0b0c0d0e0f"));
  const Bytes pt = from_hex("00112233445566778899aabbccddeeff");
  std::uint8_t block[16];
  aes.encrypt_block(pt.data(), block);
  check.expect(to_hex(BytesView(block, 16)) == "69c4e0d86a7b0430d8cdb78070b4c55a",
               "aes_block");
  out.layers["crypto.aes_block_ns"] = ns_per_call(20000, [&](int) {
    aes.encrypt_block(block, block);
  });

  // AES-GCM: SP 800-38D test case 2, then round trips at frame sizes.
  {
    const crypto::AesGcm zero(Bytes(16, 0));
    Bytes tag;
    const Bytes ct = zero.seal(Bytes(12, 0), {}, Bytes(16, 0), tag);
    check.expect(to_hex(ct) == "0388dace60b6a392f328c2b971b2fe78" &&
                     to_hex(tag) == "ab6e47d42cec13bdf53a67b21257bddf",
                 "gcm_vector");
  }
  const crypto::AesGcm gcm(pattern(16, 7));
  const Bytes iv = pattern(12, 3);
  const Bytes aad = pattern(8, 5);
  for (const std::size_t n : {std::size_t{8}, std::size_t{32}, std::size_t{64}}) {
    const Bytes msg = pattern(n, static_cast<std::uint8_t>(n));
    Bytes tag, ct;
    const double ns = ns_per_call(2000, [&](int) {
      ct = gcm.seal(iv, aad, msg, tag);
    });
    out.layers["crypto.gcm_seal_ns_" + std::to_string(n) + "B"] = ns;
    const auto back = gcm.open(iv, aad, ct, tag);
    check.expect(back.has_value() && *back == msg, "gcm_seal round trip");
    if (n == 64) {
      bool all_ok = true;
      out.layers["crypto.gcm_open_ns_64B"] = ns_per_call(2000, [&](int) {
        all_ok &= gcm.open(iv, aad, ct, tag).has_value();
      });
      check.expect(all_ok, "gcm_open");
    }
  }
  {
    const Bytes frame = pattern(1500, 11);
    Bytes tag, ct;
    const double ns = ns_per_call(40, [&](int) {
      ct = gcm.seal(iv, aad, frame, tag);
    });
    out.layers["crypto.gcm_mbps_1500B"] = 1500.0 / ns * 1e3;
    const auto back = gcm.open(iv, aad, ct, tag);
    check.expect(back.has_value() && *back == frame, "gcm 1500B round trip");
  }

  // AES-CMAC, RFC 4493 example 2, then the timed 8-byte MAC.
  const crypto::AesCmac cmac(from_hex("2b7e151628aed2a6abf7158809cf4f3c"));
  check.expect(to_hex(cmac.mac(from_hex("6bc1bee22e409f96e93d7e117393172a"))) ==
                   "070a16b46b4d4144f79bdd9dd04a287c",
               "cmac_vector");
  const Bytes m8 = pattern(8, 1);
  out.layers["crypto.cmac_ns_8B"] = ns_per_call(5000, [&](int) {
    (void)cmac.mac(m8);
  });

  // X25519, RFC 7748 section 5.2 vector 1.
  crypto::X25519Key scalar{}, u{};
  const Bytes s = from_hex(
      "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
  const Bytes uu = from_hex(
      "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
  std::copy(s.begin(), s.end(), scalar.begin());
  std::copy(uu.begin(), uu.end(), u.begin());
  crypto::X25519Key shared{};
  out.layers["crypto.x25519_us"] =
      ns_per_call(20, [&](int) { shared = crypto::x25519(scalar, u); }) / 1e3;
  check.expect(to_hex(BytesView(shared.data(), 32)) ==
                   "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552",
               "x25519");

  // Ed25519, RFC 8032 section 7.1 test 1.
  const auto kp = crypto::ed25519_keypair(from_hex(
      "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60"));
  crypto::Ed25519Signature sig{};
  out.layers["crypto.ed25519_sign_us"] =
      ns_per_call(20, [&](int) { sig = crypto::ed25519_sign(kp, {}); }) / 1e3;
  check.expect(to_hex(BytesView(sig.data(), 64)) ==
                   "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155"
                   "5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
               "ed25519_sign");
  bool verified = true;
  out.layers["crypto.ed25519_verify_us"] =
      ns_per_call(20, [&](int) {
        verified &= crypto::ed25519_verify(BytesView(kp.public_key.data(), 32),
                                           {}, BytesView(sig.data(), 64));
      }) / 1e3;
  check.expect(verified, "ed25519_verify");
}

/// Times `protect` over `n` frames cycling through `sizes`, then `verify`
/// over the same frames in order (replay windows stay happy), checking
/// every recovered payload.
template <class Make, class Protect, class Verify>
void framer_probe(Outcome& out, Checker& check, const std::string& name,
                  std::initializer_list<std::size_t> sizes, Make make,
                  Protect protect, Verify verify) {
  constexpr int kFrames = 1500;
  const std::vector<std::size_t> cycle(sizes);
  std::vector<double> protect_ns, verify_ns;
  bool ok = true;
  for (int rep = 0; rep < kReps; ++rep) {
    auto [tx, rx] = make();
    std::vector<Bytes> plain;
    for (int i = 0; i < kFrames; ++i) {
      plain.push_back(pattern(cycle[static_cast<std::size_t>(i) % cycle.size()],
                              static_cast<std::uint8_t>(i)));
    }
    std::vector<decltype(protect(tx, plain[0]))> wire;
    wire.reserve(kFrames);
    std::int64_t t0 = now_ns();
    for (int i = 0; i < kFrames; ++i) wire.push_back(protect(tx, plain[i]));
    protect_ns.push_back(static_cast<double>(now_ns() - t0) / kFrames);
    t0 = now_ns();
    for (int i = 0; i < kFrames; ++i) ok &= verify(rx, wire[i]) == plain[i];
    verify_ns.push_back(static_cast<double>(now_ns() - t0) / kFrames);
  }
  out.layers["secproto." + name + "_protect_ns"] = median(protect_ns);
  out.layers["secproto." + name + "_verify_ns"] = median(verify_ns);
  check.expect(ok, "secproto." + name + " round trip");
}

void secproto_probes(Outcome& out, Checker& check) {
  const Bytes key(16, 0x5C);

  framer_probe(
      out, check, "cansec", {8, 32, 59},
      [&] {
        return std::make_pair(secproto::CansecAssociation(key),
                              secproto::CansecAssociation(key));
      },
      [](secproto::CansecAssociation& tx, const Bytes& payload) {
        avsec::netsim::CanFrame f;
        f.id = 0x123;
        f.protocol = avsec::netsim::CanProtocol::kXl;
        f.payload = payload;
        return tx.protect(f);
      },
      [](secproto::CansecAssociation& rx, const avsec::netsim::CanFrame& f) {
        const auto back = rx.unprotect(f);
        return back ? back->payload : Bytes{};
      });

  framer_probe(
      out, check, "macsec", {8, 32, 60},
      [&] {
        return std::make_pair(std::make_unique<secproto::MacsecChannel>(key, 1),
                              std::make_unique<secproto::MacsecChannel>(key, 1));
      },
      [](std::unique_ptr<secproto::MacsecChannel>& tx, const Bytes& payload) {
        avsec::netsim::EthFrame f;
        f.dst = {0x02, 0, 0, 0, 0, 2};
        f.src = {0x02, 0, 0, 0, 0, 1};
        f.payload = payload;
        return tx->protect(f);
      },
      [](std::unique_ptr<secproto::MacsecChannel>& rx,
         const avsec::netsim::EthFrame& f) {
        const auto back = rx->unprotect(f);
        return back ? back->payload : Bytes{};
      });

  framer_probe(
      out, check, "secoc", {8, 16, 32},
      [&] {
        return std::make_pair(secproto::SecOcSender(key),
                              secproto::SecOcReceiver(key));
      },
      [](secproto::SecOcSender& tx, const Bytes& data) {
        return tx.protect(0x100, data);
      },
      [](secproto::SecOcReceiver& rx, const Bytes& pdu) {
        return rx.verify(0x100, pdu).value_or(Bytes{});
      });

  // Full TLS-lite handshake: X25519 exchange, Ed25519 certificate and
  // transcript signatures, key schedule; checked by a record round trip.
  const secproto::TlsCa ca{Bytes(32, 0xCA)};
  const Bytes server_seed(32, 0x51);
  const auto server_kp = crypto::ed25519_keypair(server_seed);
  const secproto::TlsCert cert = ca.issue("ecu.vehicle.local", server_kp.public_key);
  bool ok = true;
  out.layers["secproto.tls_handshake_us"] =
      ns_per_call(4, [&](int i) {
        secproto::TlsClient client(static_cast<std::uint64_t>(i) + 1,
                                   ca.public_key());
        secproto::TlsServer server(static_cast<std::uint64_t>(i) + 101, cert,
                                   server_seed);
        auto resp = server.respond(client.hello());
        if (!resp) {
          ok = false;
          return;
        }
        auto session = client.finish(resp->hello);
        if (!session) {
          ok = false;
          return;
        }
        const Bytes msg = pattern(32, 9);
        const auto got = resp->session.client_to_server->open(
            session->client_to_server->seal(msg));
        ok &= got.has_value() && *got == msg;
      }) / 1e3;
  check.expect(ok, "secproto.tls handshake");
}

}  // namespace

void run_probes(Outcome& out) {
  Checker check(out);
  crypto_probes(out, check);
  secproto_probes(out, check);
}

}  // namespace perfbench
