// Umbrella header: the public API of the cmcp library.
//
// Quick tour:
//   * core/simulation.h      — configure and run one experiment
//   * policy/*               — replacement policies (CMCP, FIFO, LRU, ...)
//   * mm/*                   — page tables (regular / PSPT), frames, pages
//   * sim/*                  — the many-core machine model and cost model
//   * workloads/*            — the paper's four workloads + the A4 adversary
//   * metrics/*              — counters, tables, results, experiment runner
//   * sim/trace.h            — structured event tracing + exporters
#pragma once

#include "core/memory_manager.h"
#include "core/simulation.h"
#include "metrics/experiment.h"
#include "metrics/parallel_runner.h"
#include "metrics/result_writer.h"
#include "metrics/stats.h"
#include "metrics/table.h"
#include "sim/trace.h"
#include "policy/cmcp.h"
#include "policy/policy_factory.h"
#include "workloads/synthetic.h"
#include "workloads/trace.h"
#include "workloads/workload_factory.h"
