#include "rx/rds_path.h"

#include "fm/rds.h"
#include "rx/rds_stream.h"

namespace fmbs::rx {

RdsLinkReport rds_link_report_from(const fm::RdsDecodeResult& decoded) {
  RdsLinkReport report;
  report.synced = decoded.synced;
  report.blocks_ok = decoded.blocks_ok;
  report.blocks_failed = decoded.blocks_failed;
  const std::size_t checked = decoded.blocks_ok + decoded.blocks_failed;
  report.bler = checked > 0
                    ? static_cast<double>(decoded.blocks_failed) /
                          static_cast<double>(checked)
                    : 1.0;
  report.ps_name = decoded.ps_name;
  report.radiotext = decoded.radiotext;
  return report;
}

RdsLinkReport decode_rds_link(std::span<const float> mpx, double sample_rate,
                              units::Seconds start, units::Seconds duration) {
  if (mpx.empty() || sample_rate <= 0.0) return RdsLinkReport{};
  RdsStreamDecoder decoder(sample_rate, mpx.size(), start.raw(),
                           duration.raw());
  decoder.push(mpx);
  return decoder.finish();
}

}  // namespace fmbs::rx
