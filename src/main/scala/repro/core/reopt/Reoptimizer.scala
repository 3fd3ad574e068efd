package repro.core.reopt

import scala.annotation.tailrec
import scala.collection.mutable

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.ce.{Estimator, QError}
import repro.core.exec.{SimExecutor, SparkExecutor}
import repro.core.opt.{CostModel, DPPlanner, JoinGraph, Plan}
import repro.core.stats.{Catalog, ColumnStats, TableStats}
import repro.core.truth.TrueCardinality

/** How a re-optimization step runs the plan / materializes a sub-join.
  * Returned times are in "work milliseconds" (simulated) or wall-clock
  * milliseconds (Spark).
  */
trait ExecBackend {
  /** Execute the final plan; returns execution time in ms. */
  def run(g: JoinGraph, plan: Plan): Double
  /** Materialize `plan`'s sub-join as `tempName`; returns (ms, exact stats). */
  def materialize(g: JoinGraph, plan: Plan, tempName: String): (Double, TableStats)
}

/** Deterministic backend: prices execution with true cardinalities via
  * [[SimExecutor]]; temp statistics come exactly from the oracle.
  */
final class SimBackend(sim: SimExecutor, truth: TrueCardinality) extends ExecBackend {
  override def run(g: JoinGraph, plan: Plan): Double =
    SimExecutor.toMillis(sim.executionWork(g, truth, plan))

  override def materialize(g: JoinGraph, plan: Plan, tempName: String): (Double, TableStats) = {
    val ms = SimExecutor.toMillis(sim.materializationWork(g, truth, plan))
    (ms, Reoptimizer.tempStats(g, truth, plan.mask))
  }
}

/** Real backend: executes on Spark, materializing temporaries with
  * persist+count (the Spark phrasing of the paper's CREATE TEMP TABLE).
  * Registered temporaries become joinable base tables for later steps.
  */
final class SparkBackend(
    spark: SparkSession,
    baseDb: Map[String, DataFrame],
    truth: TrueCardinality,
) extends ExecBackend {
  private val db = mutable.Map[String, DataFrame](baseDb.toSeq: _*)
  private val cached = mutable.ArrayBuffer.empty[DataFrame]

  /** Row count returned by the most recent final-plan execution. */
  var lastCount: Long = -1L

  private val executor = new SparkExecutor(spark, db)

  override def run(g: JoinGraph, plan: Plan): Double = {
    val (n, ms) = executor.run(g, plan)
    lastCount = n
    ms
  }

  override def materialize(g: JoinGraph, plan: Plan, tempName: String): (Double, TableStats) = {
    val (df, _, ms) = executor.materialize(g, plan)
    db(tempName) = df
    cached += df
    (ms, Reoptimizer.tempStats(g, truth, plan.mask))
  }

  /** Unpersist all temporaries created during a query's re-optimization. */
  def cleanup(): Unit = { cached.foreach(_.unpersist(false)); cached.clear() }
}

/** The paper's re-optimization scheme (§V), run as an AQE-style driver loop:
  *
  *  1. plan the (remaining) query with the current estimator;
  *  2. inspect the chosen plan's join operators bottom-up and find the lowest
  *     one whose Q-error — true vs estimated cardinality — exceeds the
  *     threshold τ (the paper's trigger, §V-A; true cardinalities are what
  *     EXPLAIN ANALYZE reported in the paper's simulation);
  *  3. if no join below the root exceeds τ: execute and stop;
  *  4. otherwise materialize that sub-join as a temporary table, contract the
  *     join graph around it, inject the temporary's *exact* statistics into
  *     the catalog, and re-plan the remainder. Repeat.
  *
  * Planning time (all DP invocations) and execution time (materializations +
  * final plan) are accounted separately, as in the paper.
  */
final class Reoptimizer(cost: CostModel, baseCatalog: Catalog) {

  final case class Step(query: String, tempName: String, origMask: Long, rows: Long, qerror: Double)

  final case class Result(
      execMs: Double,
      planMs: Double,
      steps: Vector[Step],
      finalPlan: Plan,
      finalGraph: JoinGraph,
  ) { def replans: Int = steps.size }

  /** Run with re-optimization. Each step contracts at least two relations
    * into one, so a query of n relations is re-planned at most n − 2 times.
    *
    * @param g0 original query graph
    * @param truth oracle on `g0`
    * @param mkEstimator estimator factory given the (temp-augmented) catalog
    * @param backend execution backend
    * @param threshold Q-error trigger τ
    */
  def run(
      g0: JoinGraph,
      truth: TrueCardinality,
      mkEstimator: Catalog => Estimator,
      backend: ExecBackend,
      threshold: Double,
  ): Result = {
    @tailrec def loop(g: JoinGraph, catalog: Catalog, execMs: Double, planNs: Long, steps: Vector[Step]): Result = {
      val res     = new DPPlanner(cost, catalog).plan(g, mkEstimator(catalog))
      val planned = planNs + res.planningNanos
      // the lowest join (other than the whole query) whose Q-error exceeds τ
      val offender = res.plan.joinsBottomUp.iterator
        .filter(_.mask != g.fullMask)
        .map(j => (j, QError(truth.card(g.origUnion(j.mask)).toDouble, j.estRows)))
        .find(_._2 > threshold)
      offender match {
        case None =>
          Result(execMs + backend.run(g, res.plan), planned / 1e6, steps, res.plan, g)
        case Some((j, qerror)) =>
          val tempName = s"${g0.name}_tmp${steps.size}"
          val (ms, ts) = backend.materialize(g, j, tempName)
          loop(g.contract(j.mask, tempName), catalog.withTable(tempName, ts), execMs + ms, planned,
            steps :+ Step(g0.name, tempName, g.origUnion(j.mask), ts.rowCount, qerror))
      }
    }
    loop(g0, baseCatalog, 0.0, 0L, Vector.empty)
  }
}

object Reoptimizer {
  /** Exact statistics of a materialized sub-join `mask` of graph `g`: row
    * count and per-interface-column ndv from the oracle (what ANALYZE on the
    * temp table would return; the data was just computed, so this is free).
    */
  def tempStats(g: JoinGraph, truth: TrueCardinality, mask: Long): TableStats = {
    val orig = g.origUnion(mask)
    val rows = truth.card(orig)
    // Interface classes in *original graph* terms: use origIds valid on g.
    val cols = g.interfaceClasses(mask).map { case (c, _) =>
      val ndv = truth.classNdv(orig, c.origId)
      s"c${c.origId}" -> ColumnStats(rows, math.max(1L, ndv), 0L, Long.MaxValue, Vector.empty, Vector.empty)
    }.toMap
    TableStats(rows, cols)
  }
}
