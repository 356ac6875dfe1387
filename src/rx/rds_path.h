// Receiver-side RDS data path — the missing leg of the paper's headline
// demo (§4.2, §8, Fig. 3): any unmodified FM radio that demodulates a
// channel also sees the 57 kHz RDS subcarrier in its composite baseband, so
// a backscattering poster can push RadioText ("SIMPLY THREE - TICKETS 50%
// OFF") to its display. This module turns a receiver's post-demodulation
// MPX into decode statistics for one RDS source: a scene station's PS
// broadcast, or a tag's RadioText burst.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "core/units.h"

namespace fmbs::fm {
struct RdsDecodeResult;
}  // namespace fmbs::fm

namespace fmbs::rx {

/// Decode statistics of one RDS source recovered from a receiver's
/// post-demodulation MPX. Block accounting is post-sync only (see
/// fm::RdsDecodeResult): `bler` is blocks_failed / (blocks_ok +
/// blocks_failed), pinned to 1.0 when block sync was never acquired, so it
/// can be plotted next to FSK BER in range sweeps.
struct RdsLinkReport {
  bool synced = false;            ///< block sync acquired inside the window
  std::size_t blocks_ok = 0;      ///< post-sync blocks passing the syndrome
  std::size_t blocks_failed = 0;  ///< post-sync blocks failing it
  double bler = 1.0;              ///< block error rate (1.0 when unsynced)
  std::string ps_name;            ///< recovered group-0A program service name
  std::string radiotext;          ///< recovered group-2A RadioText
};

/// Decodes RDS from a window of a receiver's post-demod MPX (at
/// `sample_rate`) by pushing the whole capture through an
/// rx::RdsStreamDecoder. `start` / `duration` select the window (a negative
/// duration extends to the end of the capture): a tag burst is decoded over
/// its on-air window only, so a co-channel station's own continuous RDS
/// outside the burst cannot skew carrier or symbol-timing recovery toward
/// the wrong source. An empty capture or a sample rate <= 0 yields an empty
/// (unsynced, BLER 1) report.
RdsLinkReport decode_rds_link(std::span<const float> mpx, double sample_rate,
                              units::Seconds start = units::Seconds{0.0},
                              units::Seconds duration = units::Seconds{-1.0});

/// Converts a raw decoder result into link statistics (BLER pinned to 1.0
/// when no block was ever checked).
RdsLinkReport rds_link_report_from(const fm::RdsDecodeResult& decoded);

}  // namespace fmbs::rx
