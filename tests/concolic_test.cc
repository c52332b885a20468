// Tests for the concolic engine + driver on small instrumented programs:
// the "negate, solve, re-execute" loop of Fig. 1 must systematically cover
// all feasible paths, and do so far faster than random search on a needle.

#include <gtest/gtest.h>

#include <set>

#include "src/sym/concolic.h"

namespace dice::sym {
namespace {

TEST(EngineTest, ConcreteBranchesNotRecorded) {
  Engine engine;
  engine.BeginRun({});
  EXPECT_TRUE(engine.Branch(Bool(true), 1));
  EXPECT_FALSE(engine.Branch(Bool(false), 2));
  EXPECT_TRUE(engine.path().empty());
}

TEST(EngineTest, SymbolicBranchRecorded) {
  Engine engine;
  engine.BeginRun({});
  Value x = engine.MakeSymbolic("x", 32, 5, 0, 100);
  EXPECT_EQ(x.concrete(), 5u);
  bool taken = engine.Branch(x < Value(10), 100);
  EXPECT_TRUE(taken);
  ASSERT_EQ(engine.path().size(), 1u);
  EXPECT_EQ(engine.path()[0].site, 100u);
  EXPECT_TRUE(engine.path()[0].taken);
  // The path constraint is the predicate itself when taken.
  EXPECT_EQ(engine.path()[0].Constraint()->Eval({{0, 5}}), 1u);
  EXPECT_EQ(engine.path()[0].Constraint()->Eval({{0, 50}}), 0u);
}

TEST(EngineTest, AssignmentOverridesSeed) {
  Engine engine;
  engine.BeginRun({});
  Value x = engine.MakeSymbolic("x", 32, 5, 0, 100);
  EXPECT_EQ(x.concrete(), 5u);
  engine.BeginRun({{0, 77}});
  x = engine.MakeSymbolic("x", 32, 5, 0, 100);
  EXPECT_EQ(x.concrete(), 77u);
  EXPECT_EQ(engine.vars().size(), 1u) << "re-binding must not create new variables";
}

TEST(EngineTest, EffectiveAssignmentFillsSeeds) {
  Engine engine;
  engine.BeginRun({{1, 9}});
  engine.MakeSymbolic("a", 32, 3, 0, 100);
  engine.MakeSymbolic("b", 32, 4, 0, 100);
  Assignment eff = engine.EffectiveAssignment();
  EXPECT_EQ(eff.at(0), 3u);
  EXPECT_EQ(eff.at(1), 9u);
}

// --- Driver: full path coverage on a 3-branch program (8 paths) -----------------

TEST(ConcolicDriverTest, CoversAllPathsOfBranchCube) {
  std::set<int> outcomes;
  Program program = [&outcomes](Engine& engine) {
    Value x = engine.MakeSymbolic("x", 32, 0, 0, 100);
    Value y = engine.MakeSymbolic("y", 32, 0, 0, 100);
    Value z = engine.MakeSymbolic("z", 32, 0, 0, 100);
    int path = 0;
    if (engine.Branch(x > Value(50), 1)) {
      path |= 1;
    }
    if (engine.Branch(y == Value(33), 2)) {
      path |= 2;
    }
    if (engine.Branch(z < Value(10), 3)) {
      path |= 4;
    }
    outcomes.insert(path);
  };

  ConcolicOptions options;
  options.max_runs = 64;
  ConcolicDriver driver(options);
  driver.Explore(program);

  EXPECT_EQ(outcomes.size(), 8u) << "all 2^3 paths must be reached";
  EXPECT_EQ(driver.stats().unique_paths, 8u);
  EXPECT_EQ(driver.stats().branches_covered, 6u);  // 3 sites x 2 outcomes
  EXPECT_LE(driver.stats().runs, 20u) << "systematic search should not thrash";
}

// Nested/dependent branches: deep guard requires solving a conjunction.
TEST(ConcolicDriverTest, ReachesDeepNestedBranch) {
  bool reached_core = false;
  Program program = [&reached_core](Engine& engine) {
    Value x = engine.MakeSymbolic("x", 32, 0, 0, 10000);
    if (engine.Branch(x > Value(100), 1)) {
      if (engine.Branch(x < Value(200), 2)) {
        if (engine.Branch(x == Value(150), 3)) {
          reached_core = true;
        }
      }
    }
  };
  ConcolicOptions options;
  options.max_runs = 32;
  ConcolicDriver driver(options);
  driver.Explore(program);
  EXPECT_TRUE(reached_core) << "needle x==150 requires constraint solving";
}

// The classic concolic win: an equality needle in a 2^32 haystack that random
// testing essentially never hits.
TEST(ConcolicDriverTest, FindsEqualityNeedleInFewRuns) {
  bool found = false;
  Program program = [&found](Engine& engine) {
    Value x = engine.MakeSymbolic("x", 32, 7, 0, 0xffffffff);
    if (engine.Branch(x == Value(0xdeadbeef), 1)) {
      found = true;
    }
  };
  ConcolicOptions options;
  options.max_runs = 8;
  ConcolicDriver driver(options);
  driver.Explore(program);
  EXPECT_TRUE(found);
  EXPECT_LE(driver.stats().runs, 3u);
}

TEST(ConcolicDriverTest, InfeasiblePathsReportedUnsat) {
  Program program = [](Engine& engine) {
    Value x = engine.MakeSymbolic("x", 32, 0, 0, 100);
    if (engine.Branch(x < Value(50), 1)) {
      // This branch is unreachable with x < 50:
      engine.Branch(x > Value(80), 2);
    }
  };
  ConcolicOptions options;
  options.max_runs = 32;
  ConcolicDriver driver(options);
  driver.Explore(program);
  EXPECT_GT(driver.solver_stats().unsat, 0u)
      << "negating (x>80) under (x<50) must be proven infeasible";
}

TEST(ConcolicDriverTest, ObserverSeesEveryRun) {
  size_t observed = 0;
  Program program = [](Engine& engine) {
    Value x = engine.MakeSymbolic("x", 32, 0, 0, 100);
    engine.Branch(x < Value(50), 1);
  };
  ConcolicOptions options;
  options.max_runs = 16;
  ConcolicDriver driver(options);
  driver.Explore(program, [&](const Assignment&, const Path&) { ++observed; });
  EXPECT_EQ(observed, driver.stats().runs);
  EXPECT_GE(observed, 2u);
}

TEST(ConcolicDriverTest, IncrementalStepsMatchBatch) {
  auto make_program = [](std::set<int>* outcomes) -> Program {
    return [outcomes](Engine& engine) {
      Value x = engine.MakeSymbolic("x", 32, 0, 0, 100);
      Value y = engine.MakeSymbolic("y", 32, 0, 0, 100);
      int path = 0;
      if (engine.Branch(x > Value(10), 1)) {
        path |= 1;
      }
      if (engine.Branch(y > Value(20), 2)) {
        path |= 2;
      }
      outcomes->insert(path);
    };
  };

  std::set<int> batch_outcomes;
  ConcolicDriver batch{ConcolicOptions{}};
  batch.Explore(make_program(&batch_outcomes));

  std::set<int> step_outcomes;
  ConcolicDriver stepper{ConcolicOptions{}};
  stepper.StartIncremental(make_program(&step_outcomes));
  while (stepper.StepIncremental()) {
  }
  EXPECT_EQ(step_outcomes, batch_outcomes);
  EXPECT_EQ(stepper.stats().unique_paths, batch.stats().unique_paths);
}

TEST(ConcolicDriverTest, RespectsRunBudget) {
  Program program = [](Engine& engine) {
    // Many independent branches -> path explosion; the budget must cap runs.
    for (uint64_t i = 0; i < 12; ++i) {
      Value x = engine.MakeSymbolic("x" + std::to_string(i), 32, 0, 0, 100);
      engine.Branch(x > Value(50), i + 1);
    }
  };
  ConcolicOptions options;
  options.max_runs = 10;
  ConcolicDriver driver(options);
  driver.Explore(program);
  EXPECT_LE(driver.stats().runs, 10u);
}

// --- strategies ------------------------------------------------------------------

class StrategySweep : public ::testing::TestWithParam<const char*> {};

TEST_P(StrategySweep, AllStrategiesCoverSmallCube) {
  std::set<int> outcomes;
  Program program = [&outcomes](Engine& engine) {
    Value x = engine.MakeSymbolic("x", 32, 0, 0, 100);
    Value y = engine.MakeSymbolic("y", 32, 0, 0, 100);
    int path = 0;
    if (engine.Branch(x > Value(50), 1)) {
      path |= 1;
    }
    if (engine.Branch(y > Value(50), 2)) {
      path |= 2;
    }
    outcomes.insert(path);
  };
  ConcolicOptions options;
  options.max_runs = 32;
  options.strategy = GetParam();
  ConcolicDriver driver(options);
  driver.Explore(program);
  EXPECT_EQ(outcomes.size(), 4u) << "strategy " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Strategies, StrategySweep,
                         ::testing::Values("generational", "dfs", "bfs", "random"));

TEST(StrategyTest, HashDistinguishesOutcomes) {
  Path p1;
  p1.push_back(BranchRecord{Expr::MakeVar(0, 1), true, 7});
  Path p2;
  p2.push_back(BranchRecord{Expr::MakeVar(0, 1), false, 7});
  EXPECT_NE(HashDecisions(p1), HashDecisions(p2));
  EXPECT_EQ(HashDecisionsWithFlip(p1, 0), HashDecisions(p2));
}

TEST(StrategyTest, GenerationalDedupesCandidates) {
  GenerationalStrategy strategy;
  Path path;
  path.push_back(BranchRecord{Expr::ULt(Expr::MakeVar(0, 32), Expr::MakeConst(5, 32)), true, 1});
  strategy.AddPath(path, {}, 0);
  strategy.AddPath(path, {}, 0);  // same path again
  EXPECT_EQ(strategy.FrontierSize(), 1u);
}

// --- Solver fast path regression -------------------------------------------------
//
// The slicing + cross-run cache optimizations must be invisible in the
// exploration results: same runs, same unique paths, same coverage, at every
// budget, for a program mixing independent and dependent branches.

TEST(ConcolicDriverTest, FastPathPreservesExplorationResults) {
  auto make_program = [] {
    return [](Engine& engine) {
      Value a = engine.MakeSymbolic("a", 32, 5, 0, 1000);
      Value b = engine.MakeSymbolic("b", 32, 5, 0, 1000);
      Value c = engine.MakeSymbolic("c", 32, 5, 0, 1000);
      engine.Branch(a > Value(100), 1);
      engine.Branch(b > Value(100), 2);
      if (engine.Branch(a + b > Value(900), 3)) {
        engine.Branch(c == Value(77), 4);
      }
      engine.Branch(c < Value(500), 5);
    };
  };
  for (uint64_t budget : {8, 32, 128}) {
    ConcolicOptions baseline_options;
    baseline_options.max_runs = budget;
    baseline_options.solver.enable_slicing = false;
    baseline_options.solver.enable_cache = false;
    ConcolicDriver baseline(baseline_options);
    baseline.Explore(make_program());

    ConcolicOptions fast_options;
    fast_options.max_runs = budget;
    ConcolicDriver fast(fast_options);
    fast.Explore(make_program());

    EXPECT_EQ(baseline.stats().runs, fast.stats().runs) << "budget " << budget;
    EXPECT_EQ(baseline.stats().unique_paths, fast.stats().unique_paths) << "budget " << budget;
    EXPECT_EQ(baseline.stats().branches_covered, fast.stats().branches_covered)
        << "budget " << budget;
    EXPECT_EQ(baseline.stats().max_path_depth, fast.stats().max_path_depth)
        << "budget " << budget;
  }
}

TEST(ConcolicDriverTest, SharedSolverCachePersistsAcrossDrivers) {
  Program program = [](Engine& engine) {
    for (uint64_t i = 0; i < 4; ++i) {
      Value x = engine.MakeSymbolic("x" + std::to_string(i), 16, 10, 0, 1000);
      engine.Branch(x > Value(500), i + 1);
    }
  };
  Solver shared;
  ConcolicStats first_stats;
  ConcolicStats second_stats;
  SolverStats first_solver;
  SolverStats second_solver;
  {
    ConcolicDriver driver(ConcolicOptions{}, &shared);
    driver.Explore(program);
    first_stats = driver.stats();
    first_solver = driver.solver_stats();
  }
  {
    ConcolicDriver driver(ConcolicOptions{}, &shared);
    driver.Explore(program);
    second_stats = driver.stats();
    second_solver = driver.solver_stats();
  }
  EXPECT_EQ(first_stats.runs, second_stats.runs);
  EXPECT_EQ(first_stats.unique_paths, second_stats.unique_paths);
  EXPECT_EQ(first_stats.branches_covered, second_stats.branches_covered);
  // Each driver's solver counters cover its own exploration: the same
  // queries, the second time served from the warm cache.
  EXPECT_EQ(first_solver.queries, second_solver.queries);
  EXPECT_GT(second_solver.cache_hits, first_solver.cache_hits)
      << "the second exploration must be served from the warm cache";
}

}  // namespace
}  // namespace dice::sym
