#include "ruby/model/evaluator.hpp"

#include "ruby/arch/energy_model.hpp"
#include "ruby/common/error.hpp"

namespace ruby
{

double
EvalResult::objective(Objective obj) const
{
    switch (obj) {
      case Objective::EDP:
        return edp;
      case Objective::Energy:
        return energy;
      case Objective::Delay:
        return cycles;
    }
    RUBY_ASSERT(false, "unknown objective");
    return 0.0;
}

Evaluator::Evaluator(const Problem &problem, const ArchSpec &arch,
                     ModelOptions opts)
    : problem_(&problem), arch_(&arch), opts_(opts)
{
    // Energy floor shared by every mapping: each MAC executes once,
    // and each tensor crosses the boundary below the backing store at
    // least once (operands read, the output written). The per-tensor
    // word floor treats every axis coefficient as 1 — for strided or
    // dilated projections the model's average-tile traffic can dip
    // below tensorSize(), but never below prod_axes(1 + sum(D - 1)),
    // which is the minimum of (mean tile volume x tile count) over
    // all tilings. Level energies are non-negative, so omitting every
    // other term keeps the bound sound.
    compulsoryEnergy_ =
        static_cast<double>(problem.totalOperations()) *
        arch.macEnergy();
    if (arch.numLevels() >= 2) {
        const auto &outer = arch.level(arch.numLevels() - 1);
        for (int t = 0; t < problem.numTensors(); ++t) {
            double words = 1.0;
            for (const TensorAxis &axis : problem.tensor(t).axes) {
                double span = 1.0;
                for (const AxisTerm &term : axis.terms)
                    if (term.coef > 0)
                        span += static_cast<double>(
                            problem.dimSize(term.dim) - 1);
                words *= span;
            }
            compulsoryEnergy_ += words * (t == problem.outputTensor()
                                              ? outer.writeEnergy
                                              : outer.readEnergy);
        }
    }
}

EvalResult
Evaluator::evaluate(const Mapping &mapping) const
{
    EvalScratch scratch;
    evaluate(mapping, scratch);
    return std::move(scratch.result);
}

void
Evaluator::evaluate(const Mapping &mapping, EvalScratch &scratch) const
{
    if (checkValidity(mapping, scratch))
        runFullModel(mapping, scratch);
}

bool
Evaluator::checkValidity(const Mapping &mapping, EvalScratch &scratch,
                         bool composeReason) const
{
    RUBY_ASSERT(&mapping.problem() == problem_ &&
                    &mapping.arch() == arch_,
                "mapping evaluated against a different problem/arch");

    EvalResult &res = scratch.result;
    res.valid = false;
    res.invalidReason.clear();
    res.ops = problem_->totalOperations();

    // Most search samples die here, so the reject branches must stay
    // allocation-free: the message is composed only when the caller
    // will surface it (reports, tests), never on the search fast path.
    if (!spatialFitOk(mapping)) {
        if (composeReason)
            res.invalidReason = checkSpatialFit(mapping);
        return false;
    }
    analyzeTilesInto(mapping, scratch.tiles, scratch.extents);
    if (!capacityOk(mapping, scratch.tiles)) {
        if (composeReason)
            res.invalidReason = checkCapacity(mapping, scratch.tiles);
        return false;
    }
    return true;
}

double
Evaluator::objectiveLowerBound(const Mapping &mapping,
                               Objective obj) const
{
    // Exact serial compute steps: final cycles are the max of this
    // and the bandwidth terms, so this is a true latency floor.
    double cycles = 1.0;
    for (DimId d = 0; d < problem_->numDims(); ++d)
        cycles *= static_cast<double>(serialSteps(mapping.chain(d)));

    switch (obj) {
      case Objective::EDP:
        return compulsoryEnergy_ * cycles;
      case Objective::Energy:
        return compulsoryEnergy_;
      case Objective::Delay:
        return cycles;
    }
    RUBY_ASSERT(false, "unknown objective");
    return 0.0;
}

double
Evaluator::objectiveLowerBound(const std::vector<double> &stepsFloor,
                               Objective obj) const
{
    RUBY_ASSERT(stepsFloor.size() ==
                    static_cast<std::size_t>(problem_->numDims()),
                "one steps floor per problem dimension");
    double cycles = 1.0;
    for (DimId d = 0; d < problem_->numDims(); ++d)
        cycles *= stepsFloor[d];

    switch (obj) {
      case Objective::EDP:
        return compulsoryEnergy_ * cycles;
      case Objective::Energy:
        return compulsoryEnergy_;
      case Objective::Delay:
        return cycles;
    }
    RUBY_ASSERT(false, "unknown objective");
    return 0.0;
}

StagedEval
Evaluator::evaluateStaged(const Mapping &mapping, Objective obj,
                          double bestSoFar, bool withBound,
                          EvalScratch &scratch) const
{
    if (!checkValidity(mapping, scratch, false))
        return StagedEval::Invalid;
    // Prune only when the bound says the mapping cannot be *strictly*
    // better than the incumbent: improving requires metric < best and
    // metric >= bound, so bound >= best is conclusive.
    if (withBound &&
        objectiveLowerBound(mapping, obj) >= bestSoFar)
        return StagedEval::PrunedBound;
    runFullModel(mapping, scratch);
    return StagedEval::Modeled;
}

StagedEval
Evaluator::evaluateStaged(const Mapping &mapping, Objective obj,
                          SharedIncumbent &incumbent,
                          bool withBound,
                          EvalScratch &scratch) const
{
    if (!checkValidity(mapping, scratch, false))
        return StagedEval::Invalid;
    // Strict predicate: bound == incumbent is NOT pruned. A pruned
    // mapping therefore has metric >= bound > final minimum, so the
    // lowest-index mapping attaining the minimum is always modeled —
    // regardless of which shard lowered the incumbent, or when.
    if (withBound &&
        objectiveLowerBound(mapping, obj) > incumbent.load())
        return StagedEval::PrunedBound;
    runFullModel(mapping, scratch);
    incumbent.observeMin(scratch.result.objective(obj));
    return StagedEval::Modeled;
}

void
Evaluator::modelValidated(const Mapping &mapping,
                          EvalScratch &scratch) const
{
    runFullModel(mapping, scratch);
}

void
Evaluator::runFullModel(const Mapping &mapping,
                        EvalScratch &scratch) const
{
    scratch.nest.rebuild(mapping);
    computeAccessesInto(mapping, scratch.nest, scratch.tiles, opts_,
                        scratch.result.accesses, scratch.kept,
                        scratch.avgExtents);
    finalizeModel(mapping, scratch);
}

void
Evaluator::finalizeModel(const Mapping &mapping,
                         EvalScratch &scratch) const
{
    EvalResult &res = scratch.result;

    computeLatencyInto(mapping, res.accesses, res.latency);

    res.levelEnergy.assign(
        static_cast<std::size_t>(arch_->numLevels()), 0.0);
    double total = 0.0;
    for (int l = 0; l < arch_->numLevels(); ++l) {
        const auto &lvl = arch_->level(l);
        double reads = 0.0, writes = 0.0;
        for (int t = 0; t < problem_->numTensors(); ++t) {
            reads += res.accesses.reads[static_cast<std::size_t>(l)]
                                       [static_cast<std::size_t>(t)];
            writes += res.accesses.writes[static_cast<std::size_t>(l)]
                                         [static_cast<std::size_t>(t)];
        }
        const double e =
            reads * lvl.readEnergy + writes * lvl.writeEnergy;
        res.levelEnergy[static_cast<std::size_t>(l)] = e;
        total += e;
    }
    res.macEnergy =
        static_cast<double>(res.ops) * arch_->macEnergy();
    res.networkEnergy = res.accesses.networkWords *
                        EnergyModel::networkHop(arch_->wordBits());
    total += res.macEnergy + res.networkEnergy;

    res.energy = total;
    res.cycles = res.latency.cycles;
    res.edp = res.energy * res.cycles;
    res.utilization = res.latency.utilization;
    res.valid = true;
}

} // namespace ruby
