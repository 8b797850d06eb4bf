#include "cluster/transport.h"

#include "util/metrics.h"

namespace magicrecs {

Result<std::string> ClusterTransport::GetStatsText() {
  return MetricsRegistry::Default()->RenderText();
}

}  // namespace magicrecs
