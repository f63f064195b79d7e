/**
 * @file
 * Config-driven construction of architectures, workloads and mapper
 * settings — the text front end of the library, mirroring Timeloop's
 * YAML-driven workflow.
 *
 * Architecture document:
 * @code
 * architecture:
 *   name: my-accel
 *   word_bits: 16
 *   levels:                 # inner to outer; last is backing store
 *     - name: PEspad
 *       per_tensor_capacity: [224, 12, 16]
 *       bandwidth: 6
 *     - name: GLB
 *       capacity_words: 65536
 *       bandwidth: 16
 *       fanout_x: 14
 *       fanout_y: 12
 *     - name: DRAM
 *       backing_store: true
 *       bandwidth: 16
 * @endcode
 *
 * Workload document:
 * @code
 * workload:
 *   type: conv              # conv | gemm | vector
 *   name: conv3_1x1b
 *   c: 128
 *   m: 512
 *   p: 28
 *   q: 28
 * @endcode
 *
 * Mapper document:
 * @code
 * mapper:
 *   mapspace: ruby-s        # pfm | ruby | ruby-s | ruby-t
 *   objective: edp          # edp | energy | delay
 *   constraints: eyeriss-rs # none | eyeriss-rs | simba | toy-cm
 *   termination_streak: 3000
 *   max_evaluations: 100000
 *   seed: 42
 *   threads: 1              # 0 = one per hardware thread
 *   restarts: 1
 *   time_budget_ms: 0       # wall-clock cap per search; 0 = none
 *   network_time_budget_ms: 0  # cap for whole-network sweeps
 *   pad: false
 * @endcode
 *
 * Documents parse with parseYaml, which types scalars: a plain number
 * token is a number, true/yes/on and false/no/off are booleans, the
 * rest are strings; quote a value to force a string (name: "64").
 * Integer keys reject -1, +5, .5, 1e3, 0x10 and 2^64; number keys
 * reject inf, nan and quoted numbers. Every load error names the
 * offending value's source line (e.g. "config line 8: '-1' is not an
 * unsigned 64-bit integer").
 */

#ifndef RUBY_IO_LOADERS_HPP
#define RUBY_IO_LOADERS_HPP

#include <string>

#include "ruby/core/mapper.hpp"
#include "ruby/io/json.hpp"

namespace ruby
{

/** Build an ArchSpec from an "architecture:" document. */
ArchSpec loadArchSpec(const JsonValue &root);

/** Build a Problem from a "workload:" document. */
Problem loadProblem(const JsonValue &root);

/** Build a MapperConfig from a "mapper:" document (all optional). */
MapperConfig loadMapperConfig(const JsonValue &root);

/** Parse @p text and assemble a ready-to-run Mapper from all three
 *  sections ("architecture" and "workload" required). */
Mapper loadMapper(const std::string &text);

/**
 * Parse the named mapspace variant ("pfm", "ruby", "ruby-s", ...).
 * @p context (a document path or CLI flag) prefixes error messages.
 */
MapspaceVariant parseVariant(const std::string &name,
                             const std::string &context = "");

/** Parse the named objective ("edp", "energy", "delay"). */
Objective parseObjective(const std::string &name,
                         const std::string &context = "");

/** Parse the named constraint preset ("none", "eyeriss-rs", ...). */
ConstraintPreset parsePreset(const std::string &name,
                             const std::string &context = "");

} // namespace ruby

#endif // RUBY_IO_LOADERS_HPP
