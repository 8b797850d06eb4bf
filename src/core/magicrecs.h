// Umbrella header: everything a downstream application needs to embed
// magicrecs. Include this and link against the magicrecs_* libraries;
// individual headers remain available for finer-grained dependencies.
//
//   #include "core/magicrecs.h"
//
//   using namespace magicrecs;
//   auto engine = MotifEngine::Create(follow_graph,
//                                     MakeDiamondSpec(/*k=*/2, Minutes(10)));
//   engine.value()->OnEdge(b, c, now, &recommendations);

#ifndef MAGICRECS_CORE_MAGICRECS_H_
#define MAGICRECS_CORE_MAGICRECS_H_

// Scalar types, Status/Result error handling.
#include "util/result.h"
#include "util/status.h"
#include "util/types.h"

// Graph substrates: the static S structure and dynamic D structure.
#include "graph/dynamic_graph.h"
#include "graph/edge.h"
#include "graph/graph_io.h"
#include "graph/static_graph.h"

// The paper's contribution: online motif detection — the diamond and the
// generalized declarative framework of §3 share one executor, MotifEngine.
#include "core/motif_engine.h"
#include "core/motif_plan.h"
#include "core/motif_spec.h"
#include "core/recommendation.h"

#endif  // MAGICRECS_CORE_MAGICRECS_H_
