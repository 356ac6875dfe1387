// Radio Data System (RDS) codec — the 57 kHz digital subcarrier of Fig. 3.
// Implements the physical layer the paper describes as part of the FM
// baseband structure: 1187.5 bps data, differentially encoded, biphase
// (Manchester) shaped, BPSK-modulated on the 57 kHz subcarrier, framed as
// groups of four 26-bit blocks (16 information + 10 checkword bits) with the
// standard offset words A/B/C/C'/D.
//
// The encoder emits group type 0A carrying a station PS name; the decoder
// performs carrier recovery, symbol timing search, differential decode and
// syndrome-based block synchronization.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "dsp/types.h"
#include "fm/constants.h"

namespace fmbs::fm {

/// One RDS group: four 16-bit information words (A, B, C, D blocks).
struct RdsGroup {
  std::array<std::uint16_t, 4> blocks{};
};

/// Computes the 10-bit RDS checkword (CRC with generator x^10 + x^8 + x^7 +
/// x^5 + x^4 + x^3 + 1) for a 16-bit information word, before offset.
std::uint16_t rds_checkword(std::uint16_t info);

/// Standard offset words added to checkwords for block identification.
enum class RdsOffset : std::uint16_t {
  kA = 0x0FC,
  kB = 0x198,
  kC = 0x168,
  kCPrime = 0x350,
  kD = 0x1B4,
};

/// Builds the group-0A sequence that broadcasts an 8-character program
/// service (PS) name. Shorter names are space padded. Returns 4 groups (one
/// per 2-character segment).
std::vector<RdsGroup> make_ps_groups(const std::string& ps_name,
                                     std::uint16_t program_id = 0x1234);

/// Builds the group-2A sequence for a RadioText message (up to 64
/// characters, 4 per group). This is how a backscattering poster can push a
/// full sentence ("SIMPLY THREE - TICKETS 50% OFF") to any RDS radio display.
std::vector<RdsGroup> make_radiotext_groups(const std::string& text,
                                            std::uint16_t program_id = 0x1234);

/// Serializes groups into the on-air bit sequence (26 bits per block,
/// checkwords + offsets included), MSB first.
std::vector<unsigned char> serialize_groups(std::span<const RdsGroup> groups);

/// Modulates an RDS bitstream onto the 57 kHz subcarrier: differential
/// encoding, biphase symbol shaping, BPSK. Produces `num_samples` samples at
/// `sample_rate` (bits repeat cyclically if needed). Unit amplitude — caller
/// applies the injection level.
dsp::rvec modulate_rds_subcarrier(std::span<const unsigned char> bits,
                                  std::size_t num_samples, double sample_rate);

/// Result of RDS demodulation.
///
/// Error accounting semantics: after block sync is acquired (the first bit
/// alignment where four consecutive 26-bit windows carry offsets A, B,
/// C/C', D with zero syndrome), the decoder strides group by group and
/// checks every 26-bit block against its expected offset word. Only these
/// post-sync blocks enter the tallies — the misaligned offsets probed
/// during acquisition are not "failed blocks", so a clean capture reports
/// blocks_failed == 0 and the block error rate is simply
/// blocks_failed / (blocks_ok + blocks_failed).
struct RdsDecodeResult {
  std::vector<RdsGroup> groups;   // post-sync windows with all 4 blocks clean
  std::string ps_name;            // reassembled from group 0A/0B segments
  std::string radiotext;          // reassembled from group 2A segments
  std::size_t bits_decoded = 0;
  bool synced = false;            // block sync ever acquired
  std::size_t blocks_ok = 0;      // post-sync blocks passing the syndrome
  std::size_t blocks_failed = 0;  // post-sync blocks failing the syndrome
};

/// The RDS receive front end, shared by decode_rds and the block-fed
/// rx::RdsStreamDecoder: a complex mixer at kRdsFrontEndMixHz (-57 kHz)
/// brings the subcarrier to DC, then a kRdsFrontEndTaps-tap low-pass with a
/// kRdsFrontEndCutoffHz cutoff filters it at the full MPX rate.
inline constexpr double kRdsFrontEndMixHz = -kRdsCarrierHz;
inline constexpr std::size_t kRdsFrontEndTaps = 101;
inline constexpr double kRdsFrontEndCutoffHz = 2400.0;

/// Demodulates and decodes RDS from a composite MPX signal.
RdsDecodeResult decode_rds(std::span<const float> mpx, double sample_rate);

/// Decodes RDS from an already-downconverted 57 kHz baseband (the output of
/// the front end above). This is the global half of the decoder — phase
/// estimate, symbol-timing search, differential decode, block sync — split
/// out so a streaming front end (rx::RdsStreamDecoder) can filter block by
/// block and run these stages once at window close. Captures shorter than
/// eight bit periods decode to an empty result.
RdsDecodeResult decode_rds_baseband(std::span<const dsp::cfloat> base,
                                    double sample_rate);

}  // namespace fmbs::fm
