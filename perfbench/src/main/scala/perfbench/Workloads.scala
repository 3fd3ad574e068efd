package perfbench

import java.sql.DriverManager

import org.duckdb.DuckDBConnection

import repro.core.ce.{Estimator, StatsEstimator}
import repro.core.exec.{SimExecutor, SparkExecutor}
import repro.core.opt.{DPPlanner, JoinGraph, Plan}
import repro.core.reopt.{ExecBackend, Reoptimizer, SimBackend, SparkBackend}
import repro.harness.{Experiments, QueryCtx, QueryRun, Workbench}
import repro.workload.{JobLite, QuerySpec}

/** One query's unit of work as the closed-loop client saw it: `line` is the
  * query's paper output (digested, never timed), `configMs` the wall time of
  * each configuration, and `problems` the correctness checks, which the
  * client runs after it has stopped the clock.
  */
final case class Outcome(line: String, configMs: Map[String, Double], problems: () => Seq[String])

/** A workload: a fixed query list and the unit of work done per query. */
sealed abstract class Workload(val name: String, val sf: Double, val runsSpark: Boolean = false) {
  def queries: Vector[QuerySpec]

  /** Work done once before timing; counted in `setup_s`. */
  def prepare(wb: Workbench, t: Tracer): Unit = ()

  /** Untimed passes over these queries, through the same code as the timed
    * passes, for at least `warmUpSeconds`, so that the measured passes start
    * with compiled code.
    */
  def warmUpQueries: Vector[QuerySpec]
  def warmUpSeconds: Double

  def unit(wb: Workbench, q: QuerySpec, t: Tracer): Outcome

  /** Checks run once per invocation on a given database, after timing:
    * query name → problem.
    */
  def gates(wb: Workbench): Map[String, String] = Map.empty
}

object Workload {
  /** Re-optimization trigger τ, the paper's default. */
  val Tau = 32.0

  val all: Vector[Workload] = Vector(SimHeadline, PlanStats, SparkReopt)

  def byName(name: String): Option[Workload] = all.find(_.name == name)

  /** Plans `g` in a span; with tracing on, the estimator's calls are booked
    * under `layer` inside it.
    */
  def plan(t: Tracer, planner: DPPlanner, g: JoinGraph, est: Estimator, layer: String): planner.Result =
    t.span("DPPlanner.plan", "core.opt") {
      val r = planner.plan(g, traced(t, est, layer))
      t.count("subsets", r.estimates.size.toDouble)
      r
    }

  def traced(t: Tracer, est: Estimator, layer: String): Estimator =
    if (t.enabled) new TracedEstimator(est, layer, t) else est

  def traced(t: Tracer, backend: ExecBackend): ExecBackend =
    if (t.enabled) new TracedBackend(backend, t) else backend

  /** Runs `body` as configuration `cfg` of a query; returns it with its wall ms. */
  def config[A](t: Tracer, cfg: String)(body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r  = t.span(s"config:$cfg", "harness")(body)
    (r, (System.nanoTime() - t0) / 1e6)
  }

  def newCtx(t: Tracer, wb: Workbench, q: QuerySpec): QueryCtx =
    t.span("QueryCtx.new", "core.truth")(new QueryCtx(wb, q))

  /** `Reoptimizer.run` with the stats estimator, in a span. */
  def reoptimize(t: Tracer, wb: Workbench, ctx: QueryCtx, backend: ExecBackend): Reoptimizer#Result =
    t.span("Reoptimizer.run", "core.reopt") {
      val re = new Reoptimizer(wb.cost, wb.catalog).run(ctx.graph, ctx.truth,
        cat => traced(t, ctx.statsEstimator(cat), "core.ce"), traced(t, backend), Tau)
      t.count("plan_ms", re.planMs)
      t.count("replans", re.replans.toDouble)
      re
    }

  def sortedSizes(m: Map[Int, Int]): String = m.toSeq.sorted.map { case (k, v) => s"$k:$v" }.mkString(",")

  /** The oracle's full-query count of each query must equal DuckDB's
    * `count(*)` over the same tables, loaded from the same driver-side snapshot.
    */
  def duckdbGate(wb: Workbench, queries: Seq[QuerySpec]): Map[String, String] = {
    val expected = queries.map { q =>
      val g = wb.graph(q)
      g -> wb.truth(q).card(g.fullMask)
    }
    Class.forName("org.duckdb.DuckDBDriver")
    val conn = DriverManager.getConnection("jdbc:duckdb:").asInstanceOf[DuckDBConnection]
    try {
      for (name <- expected.flatMap(_._1.rels.map(_.table)).distinct) {
        val t = wb.local(name)
        conn.createStatement.execute(
          s"CREATE TABLE $name (${t.colNames.map(c => s"$c BIGINT").mkString(", ")})")
        val app  = conn.createAppender(DuckDBConnection.DEFAULT_SCHEMA, name)
        val cols = t.colNames.map(t.col)
        try for (r <- 0 until t.rowCount) {
          app.beginRow()
          cols.foreach(c => app.append(c(r)))
          app.endRow()
        } finally app.close()
      }
      expected.flatMap { case (g, want) =>
        val rs = conn.createStatement.executeQuery(countSql(g))
        rs.next()
        val got = rs.getLong(1)
        if (got == want) None else Some(g.name -> s"oracle count $want != DuckDB count $got")
      }.toMap
    } finally conn.close()
  }

  def countSql(g: JoinGraph): String = {
    def ref(i: Int, c: String) = s""""${g.rels(i).alias}".$c"""
    val from  = g.rels.map(r => s"""${r.table} AS "${r.alias}"""").mkString(", ")
    val joins = g.classes.flatMap(c => c.members.zip(c.members.tail).map { case ((i, a), (j, b)) =>
      s"${ref(i, a)} = ${ref(j, b)}" })
    val preds = g.rels.indices.flatMap(i => g.rels(i).preds.map(p => p.sql(ref(i, p.column))))
    val where = joins ++ preds
    s"SELECT count(*) FROM $from" + (if (where.isEmpty) "" else where.mkString(" WHERE ", " AND ", ""))
  }
}

import Workload._

/** The paper's headline experiment (`Experiments.runQuery`): stats-CE plan
  * priced by the simulator, perfect plan from a fresh oracle, and simulated
  * re-optimization at τ = 32, over the JOB-lite queries of ≤ 12 tables.
  * The oracle does most of the work. Traced passes run the same steps
  * through the public pieces of `runQuery` so that each can be timed; their
  * outputs must equal the untraced ones.
  */
object SimHeadline extends Workload("sim-headline", 0.02) {
  lazy val queries: Vector[QuerySpec] = JobLite.all.filter(_.size <= 12)

  /** The 60 smallest queries take about 2 s; the others run the same code. */
  override def warmUpQueries: Vector[QuerySpec] = queries.sortBy(_.size).take(60)
  override def warmUpSeconds: Double = 4

  override def unit(wb: Workbench, q: QuerySpec, t: Tracer): Outcome = {
    val (r, cfgMs) = if (t.enabled) tracedRun(wb, q, t) else (Experiments.runQuery(wb, q, Tau), Map.empty[String, Double])
    val line = s"${r.name} size=${r.size} est=${sortedSizes(r.estBySize)} pg=${r.pgMs} " +
      s"perfect=${r.perfectMs} reopt=${r.reoptMs} replans=${r.reoptSteps}"
    Outcome(line, cfgMs, () => Nil)
  }

  /** `Experiments.runQuery`, step by step. */
  private def tracedRun(wb: Workbench, q: QuerySpec, t: Tracer): (QueryRun, Map[String, Double]) = {
    val ctx = newCtx(t, wb, q)
    def price(p: Plan) = t.span("SimExecutor.executionWork", "core.exec")(
      SimExecutor.toMillis(ctx.sim.executionWork(ctx.graph, ctx.truth, p)))
    val ((stats, pgMs), pgWall) = config(t, "pg") {
      val r = plan(t, ctx.planner, ctx.graph, ctx.statsEstimator(), "core.ce")
      (r, price(r.plan))
    }
    val ((perf, perfMs), perfWall) = config(t, "perfect") {
      val r = plan(t, ctx.planner, ctx.graph, ctx.perfect, "core.truth")
      (r, price(r.plan))
    }
    val (re, reWall) = config(t, "reopt")(reoptimize(t, wb, ctx, new SimBackend(ctx.sim, ctx.truth)))
    t.count("truth.subsets", ctx.truth.memoSize.toDouble)
    val run = QueryRun(q.name, q.size, stats.estimatesBySize, pgMs, stats.planningNanos / 1e6,
      perfMs, perf.planningNanos / 1e6, re.execMs, re.planMs, re.replans)
    (run, Map("pg" -> pgWall, "perfect" -> perfWall, "reopt" -> reWall))
  }

  override def gates(wb: Workbench): Map[String, String] = duckdbGate(wb, queries)
}

/** Planning only: `DPPlanner.plan` with a fresh `StatsEstimator` over all 113
  * JOB-lite queries. No oracle is built, so an oracle change must not move it.
  */
object PlanStats extends Workload("plan-stats", 0.02) {
  lazy val queries: Vector[QuerySpec] = JobLite.all

  /** About four passes: the small queries' paths kept getting faster over
    * the first three passes after a single warm-up pass.
    */
  override def warmUpQueries: Vector[QuerySpec] = queries
  override def warmUpSeconds: Double = 6

  override def unit(wb: Workbench, q: QuerySpec, t: Tracer): Outcome = {
    val g = wb.graph(q)
    val (r, ms) = config(t, "pg")(plan(t, new DPPlanner(wb.cost, wb.catalog), g, new StatsEstimator(wb.catalog), "core.ce"))
    val line = s"${q.name} est=${sortedSizes(r.estimatesBySize)} rows=${r.plan.estRows} " +
      s"cost=${r.plan.cost} plan=${r.plan.render(g)}"
    Outcome(line, Map("pg" -> ms),
      () => if (r.plan.mask == g.fullMask) Nil else Seq(s"${q.name}: plan covers ${r.plan.mask}, not ${g.fullMask}"))
  }
}

/** Fig 1 analogue on real Spark: per query, execute the stats-CE plan, then
  * the perfect plan (computed before timing), then re-optimize on
  * `SparkBackend` (materialize + final execution). Every real count must
  * equal the oracle's, and no temporary may outlive its query.
  */
object SparkReopt extends Workload("spark-reopt", 0.02, runsSpark = true) {
  /** The first six of the seventeen queries that stats-CE mis-plans at SF
    * 0.07 and seed 42; all seventeen do not fit the run-time budget.
    */
  lazy val queries: Vector[QuerySpec] =
    Vector("q30a", "q12a", "q13a", "q09a", "q30c", "q29a").map(JobLite.byName)

  /** Perfect plan and oracle full-query count per query, from `prepare`. */
  private var prepared = Map.empty[String, (Plan, Long)]

  override def prepare(wb: Workbench, t: Tracer): Unit =
    prepared = queries.map { q =>
      val ctx = newCtx(t, wb, q)
      val p   = plan(t, ctx.planner, ctx.graph, ctx.perfect, "core.truth").plan
      t.count("truth.subsets", ctx.truth.memoSize.toDouble)
      q.name -> (p, ctx.truth.card(ctx.graph.fullMask))
    }.toMap

  override def warmUpQueries: Vector[QuerySpec] = queries.take(1)
  override def warmUpSeconds: Double = 0

  override def unit(wb: Workbench, q: QuerySpec, t: Tracer): Outcome = {
    val (perfPlan, want) = prepared(q.name)
    val exec = new SparkExecutor(wb.spark, wb.db)
    def run(g: JoinGraph, p: Plan): Long = t.span("SparkExecutor.run", "core.exec") {
      val (n, ms) = exec.run(g, p)
      t.count("exec_ms", ms)
      n
    }
    val ctx = newCtx(t, wb, q)
    val ((pgPlan, pgN), pgMs) = config(t, "pg") {
      val p = plan(t, ctx.planner, ctx.graph, ctx.statsEstimator(), "core.ce").plan
      (p, run(ctx.graph, p))
    }
    val (perfN, perfMs) = config(t, "perfect")(run(ctx.graph, perfPlan))
    val backend = new SparkBackend(wb.spark, wb.db, ctx.truth)
    val (re, reMs) = config(t, "reopt") {
      try reoptimize(t, wb, ctx, backend) finally backend.cleanup()
    }
    val reN  = backend.lastCount
    t.count("truth.subsets", ctx.truth.memoSize.toDouble)
    val line = s"${q.name} rows=$want pg=${pgPlan.render(ctx.graph)} perfect=${perfPlan.render(ctx.graph)} " +
      s"steps=${re.steps.map(_.origMask).mkString(",")} final=${re.finalPlan.render(re.finalGraph)}"
    Outcome(line, Map("pg" -> pgMs, "perfect" -> perfMs, "reopt" -> reMs), () =>
      Seq("pg" -> pgN, "perfect" -> perfN, "reopt" -> reN).collect {
        case (cfg, n) if n != want => s"${q.name}: $cfg counted $n rows, oracle $want"
      } ++ {
        val left = wb.spark.sparkContext.getPersistentRDDs.size
        if (left == 0) Nil else Seq(s"${q.name}: $left persisted RDDs left after cleanup")
      })
  }

  override def gates(wb: Workbench): Map[String, String] = duckdbGate(wb, queries)
}
