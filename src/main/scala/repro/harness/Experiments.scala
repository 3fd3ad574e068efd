package repro.harness

import repro.core.ce.{Estimator, PerfectEstimator, PerfectNEstimator, StatsEstimator}
import repro.core.exec.{SimExecutor, SparkExecutor}
import repro.core.opt.{DPPlanner, JoinGraph, Plan}
import repro.core.reopt.{Reoptimizer, SimBackend, SparkBackend}
import repro.core.stats.Catalog
import repro.core.truth.TrueCardinality
import repro.workload.QuerySpec

/** Per-query experiment state shared by every configuration of that query:
  * the graph, a single true-cardinality oracle, and the executors.
  */
final class QueryCtx(val wb: Workbench, val q: QuerySpec) {
  val graph: JoinGraph        = wb.graph(q)
  val truth: TrueCardinality  = new TrueCardinality(graph, wb.local)
  val sim: SimExecutor        = new SimExecutor(wb.cost, wb.catalog)
  val planner: DPPlanner      = new DPPlanner(wb.cost, wb.catalog)

  def statsEstimator(cat: Catalog = wb.catalog): StatsEstimator = new StatsEstimator(cat)
  def perfect: Estimator                     = new PerfectEstimator(truth)
  def perfectN(n: Int, cat: Catalog = wb.catalog): Estimator =
    if (n <= 0) statsEstimator(cat)
    else new PerfectNEstimator(n, truth, statsEstimator(cat))

  /** Plan with `est`, price with true cardinalities; (execMs, planMs, plan). */
  def simRun(est: Estimator): (Double, Double, Plan) = {
    val r = planner.plan(graph, est)
    (SimExecutor.toMillis(sim.executionWork(graph, truth, r.plan)), r.planningNanos / 1e6, r.plan)
  }

  /** Re-optimize with the simulated backend. */
  def simReopt(threshold: Double, mkEst: Catalog => Estimator): Reoptimizer#Result =
    new Reoptimizer(wb.cost, wb.catalog)
      .run(graph, truth, mkEst, new SimBackend(sim, truth), threshold)
}

/** One query's headline numbers under the three paper configurations
  * (all simulated-execution milliseconds; planning separate).
  */
final case class QueryRun(
    name: String,
    size: Int,
    estBySize: Map[Int, Int],
    pgMs: Double,
    pgPlanMs: Double,
    perfectMs: Double,
    perfectPlanMs: Double,
    reoptMs: Double,
    reoptPlanMs: Double,
    reoptSteps: Int,
) {
  def pgRel: Double    = pgMs / math.max(perfectMs, 1e-9)
  def reoptRel: Double = reoptMs / math.max(perfectMs, 1e-9)
}

object Experiments {

  /** The re-optimization trigger τ: the paper's default and its best (Fig 7). */
  val Tau: Double = 32.0

  /** The paper's bucket boundaries for Tables II and VI. */
  val bucketLabels: Vector[String] = Vector("0.1 - 0.8", "0.8 - 1.2", "1.2 - 2.0", "2.0 - 5.0", "> 5.0")

  def bucket(ratio: Double): String = bucketLabels(
    if (ratio < 0.8) 0 else if (ratio < 1.2) 1 else if (ratio < 2.0) 2 else if (ratio <= 5.0) 3 else 4)

  def bucketCounts(ratios: Seq[Double]): Map[String, Int] =
    bucketLabels.map(l => l -> ratios.count(r => bucket(r) == l)).toMap

  /** Run the three headline configurations for one query. */
  def runQuery(wb: Workbench, q: QuerySpec, threshold: Double): QueryRun = {
    val ctx = new QueryCtx(wb, q)
    val statsRes = ctx.planner.plan(ctx.graph, ctx.statsEstimator())
    val pgMs     = SimExecutor.toMillis(ctx.sim.executionWork(ctx.graph, ctx.truth, statsRes.plan))
    val (perfMs, perfPlanMs, _) = ctx.simRun(ctx.perfect)
    val re = ctx.simReopt(threshold, cat => ctx.statsEstimator(cat))
    QueryRun(
      q.name, q.size, statsRes.estimatesBySize,
      pgMs, statsRes.planningNanos / 1e6,
      perfMs, perfPlanMs,
      re.execMs, re.planMs, re.replans,
    )
  }

  /** Each sweep point's results over `queries`, in query order, with one
    * oracle per query shared by all points (Figs 2, 7 and 8).
    */
  def sweep[K, R](wb: Workbench, queries: Seq[QuerySpec], points: Seq[K], verbose: Boolean = false)
                 (run: (QueryCtx, K) => R): Map[K, Vector[R]] = {
    val perQuery = queries.map { q =>
      val ctx = new QueryCtx(wb, q)
      val rs  = points.map(run(ctx, _))
      if (verbose) Console.err.println(s"[sweep] ${q.name} done")
      rs
    }
    points.indices.map(i => points(i) -> perQuery.map(_(i)).toVector).toMap
  }

  /** Real Spark wall-clock for one query's three configurations:
    * (pgMs, perfectMs, reoptExecMs, reoptSteps). Used by Fig 1.
    */
  def realRun(wb: Workbench, q: QuerySpec): (Double, Double, Double, Int) = {
    val ctx  = new QueryCtx(wb, q)
    val exec = new SparkExecutor(wb.spark, wb.db)
    val pgPlan   = ctx.planner.plan(ctx.graph, ctx.statsEstimator()).plan
    val perfPlan = ctx.planner.plan(ctx.graph, ctx.perfect).plan
    val pgMs     = exec.run(ctx.graph, pgPlan)._2
    val perfMs   = exec.run(ctx.graph, perfPlan)._2
    val backend  = new SparkBackend(wb.spark, wb.db, ctx.truth)
    val re =
      try new Reoptimizer(wb.cost, wb.catalog)
        .run(ctx.graph, ctx.truth, cat => ctx.statsEstimator(cat), backend, Tau)
      finally backend.cleanup()
    (pgMs, perfMs, re.execMs, re.replans)
  }
}
