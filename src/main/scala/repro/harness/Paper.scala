package repro.harness

import scala.collection.mutable

import org.apache.spark.sql.SparkSession

import repro.core.ce.QError
import repro.imdb.ImdbLite
import repro.workload.JobLite

/** One run of a paper experiment: the workbenches it reads, built on first
  * use, and the gates it failed. Simulated tables use `sf`; real Spark
  * executions (Fig 1) use `realSf`.
  */
final class Run(spark: => SparkSession, sf: Double, realSf: Double) {
  lazy val wb: Workbench     = Workbench(spark, sf)
  lazy val realWb: Workbench = Workbench(spark, realSf)

  private[harness] val failures = mutable.ArrayBuffer.empty[String]

  /** Records the failure `msg` unless `ok`. */
  def gate(ok: Boolean, msg: => String): Unit = if (!ok) failures += msg
}

/** One paper table or figure. `name` selects it in [[Paper.main]], `label`
  * names its bench test, and `real` marks an experiment that executes
  * queries on Spark.
  */
final class Experiment(val name: String, val label: String, val real: Boolean = false)(body: Run => Unit) {
  /** Computes and prints the experiment's tables; returns the failed gates. */
  def run(spark: => SparkSession, sf: Double, realSf: Double): Seq[String] = {
    val r = new Run(spark, sf, realSf)
    body(r)
    r.failures.toSeq
  }
}

/** The paper's evidence, each table or figure defined once: compute the rows,
  * print them beside the paper's column, check the gates. The `bench/` suites
  * run these experiments and assert their gates; [[main]] runs one by name.
  */
object Paper {
  /** Default scale of the simulated tables (~0.1 × 470k rows). */
  val DefaultSf: Double = 0.1

  /** Default scale of the real Spark executions (Fig 1): mis-planned queries
    * produce intermediates hundreds of times larger than their result, so the
    * real runs use a smaller database than the simulated tables.
    */
  val DefaultRealSf: Double = 0.07

  /** Prints one table as a `|`-separated `=== title ===` block. */
  def table(title: String, header: Seq[String], rows: Seq[Seq[Any]]): Unit = {
    println(s"\n=== $title ===")
    println(header.mkString(" | "))
    rows.foreach(r => println(r.mkString(" | ")))
    println(s"=== end $title ===\n")
  }

  private val headlines = mutable.Map.empty[ImdbLite.Config, Vector[QueryRun]]

  /** The 113 headline runs (pg / perfect / re-optimized, all simulated),
    * computed once per workbench and shared by every table that reads them.
    */
  def headline(wb: Workbench): Vector[QueryRun] = synchronized {
    headlines.getOrElseUpdate(wb.cfg, {
      val t0  = System.nanoTime()
      val res = JobLite.all.map { q =>
        val r = Experiments.runQuery(wb, q, Experiments.Tau)
        Console.err.println(f"[exp] ${r.name}%-6s pg=${r.pgMs}%10.1f perfect=${r.perfectMs}%10.1f reopt=${r.reoptMs}%10.1f steps=${r.reoptSteps}")
        r
      }
      Console.err.println(f"[paper] headline runs took ${(System.nanoTime() - t0) / 1e9}%.1f s")
      res
    })
  }

  /** Paper Table I — number of cardinality estimates on joins of N tables,
    * summed over all 113 workload queries. Ours counts the memoized estimates
    * of the DP enumerator (one per connected relation subset), the same
    * accounting as the paper's instrumented PostgreSQL.
    */
  val table1 = new Experiment("table1", "Table I: estimates per join size")({ r =>
    val paper = Vector(977, 1346, 2676, 4493, 6510, 8387, 9781, 10326, 9732,
      8019, 5665, 3357, 1630, 624, 177, 33, 3) // joins of 1 … 17 tables
    val ours = headline(r.wb).map(_.estBySize).foldLeft(Map.empty[Int, Int]) { (acc, m) =>
      m.foldLeft(acc) { case (a, (k, v)) => a.updated(k, a.getOrElse(k, 0) + v) }
    }
    table("TABLE I (estimates on joins of N tables)",
      Seq("#tables", "paper", "ours"),
      (1 to 17).map(n => Seq(n, paper(n - 1), ours.getOrElse(n, 0))))

    // N=1 is fixed by Table III: one estimate per base relation occurrence
    r.gate(ours(1) == 977, s"${ours(1)} base-relation estimates, not 977")
    // shape: rises from 1, peaks somewhere in the middle, falls to a small tail
    val peak = ours.maxBy(_._2)._1
    r.gate(peak >= 3 && peak <= 10, s"peak at $peak")
    r.gate(ours.getOrElse(17, 0) <= ours(peak), s"17-table estimates exceed the peak: $ours")
    r.gate(ours.filter(_._1 >= 2).values.sum > 1000, "join estimates should dominate")
  })

  /** Prints the bucket counts of `ratios` beside `paper` (in bucket order)
    * and gates that every query is counted.
    */
  private def bucketTable(r: Run, title: String, paper: Vector[Int], ratios: Seq[Double]): Map[String, Int] = {
    val ours = Experiments.bucketCounts(ratios)
    table(title, Seq("relative runtime", "paper #queries", "ours #queries"),
      Experiments.bucketLabels.zip(paper).map { case (l, p) => Seq(l, p, ours(l)) })
    r.gate(ours.values.sum == 113, s"${ours.values.sum} queries bucketed, not 113")
    ours
  }

  /** Paper Table II — execution time of the workload with estimated
    * (PostgreSQL-style) cardinalities relative to perfect-(17), bucketed per
    * query.
    */
  val table2 = new Experiment("table2", "Table II: stats-CE plans vs perfect plans, bucketed")({ r =>
    val res  = headline(r.wb)
    val ours = bucketTable(r, "TABLE II (pg-CE runtime relative to perfect-(17))",
      Vector(7, 32, 28, 32, 14), res.map(_.pgRel))
    // the paper's shape: most queries within 2x, a real tail beyond 2x
    r.gate(ours("0.8 - 1.2") + ours("1.2 - 2.0") + ours("0.1 - 0.8") >= 40,
      s"too few near-optimal queries: $ours")
    r.gate(ours("2.0 - 5.0") + ours("> 5.0") >= 10, s"no mis-planned tail: $ours")
    // and the tail is what makes the workload slow (paper: 20 queries -> 2x)
    val total   = res.map(_.pgMs).sum
    val perfect = res.map(_.perfectMs).sum
    r.gate(total > 1.2 * perfect, f"workload slowdown ${total / perfect}%.2f")
  })

  /** Paper Table III — queries per table count: must match exactly (the
    * workload generator is built to it).
    */
  val table3 = new Experiment("table3", "Table III: queries per number of tables")({ r =>
    table("TABLE III (queries with a given number of tables)",
      Seq("#tables", "paper", "ours"),
      JobLite.paperTableIII.toSeq.sorted.map { case (n, c) =>
        Seq(n, c, JobLite.sizeHistogram.getOrElse(n, 0)) })
    r.gate(JobLite.sizeHistogram == JobLite.paperTableIII, s"histogram ${JobLite.sizeHistogram}")
    r.gate(JobLite.all.size == 113, s"${JobLite.all.size} queries, not 113")
  })

  /** Paper Tables IV/V — the Nasdaq skew demonstration, over the IMDB-lite
    * analogue (keyword popularity): a predicate on the non-join column of a
    * skewed m-n pair produces an orders-of-magnitude join underestimate,
    * while the same information on the join column estimates fine.
    */
  val skew = new Experiment("skew", "Tables IV/V analogue: uniformity assumption vs skewed join")({ r =>
    val ctx   = new QueryCtx(r.wb, JobLite.byName("q06a"))
    val g     = ctx.graph
    val kIdx  = g.rels.indexWhere(_.alias == "k")
    val mkIdx = g.rels.indexWhere(_.alias == "mk")
    val mask  = (1L << kIdx) | (1L << mkIdx)
    val e = ctx.statsEstimator().cardinality(g, mask); val tr = ctx.truth.card(mask).toDouble
    table("TABLE IV/V demo (skewed join under uniformity)",
      Seq("quantity", "value"),
      Seq(
        Seq("estimated |σ(keyword) ⋈ movie_keyword|", f"$e%.0f"),
        Seq("true      |σ(keyword) ⋈ movie_keyword|", f"$tr%.0f"),
        Seq("q-error", f"${QError(tr, e)}%.1f"),
      ))
    r.gate(tr > 2 * e, "skewed join must be underestimated")
  })

  /** Paper Table VI — execution time with re-optimization (τ = 32) relative
    * to perfect-(17), bucketed. The paper's finding: re-optimization moves
    * mass into the near-optimal buckets and shrinks the > 5x tail vs Table II.
    */
  val table6 = new Experiment("table6", "Table VI: re-optimized runtime vs perfect, bucketed")({ r =>
    val res   = headline(r.wb)
    val ours  = bucketTable(r, "TABLE VI (re-optimized runtime relative to perfect-(17))",
      Vector(6, 47, 21, 29, 10), res.map(_.reoptRel))
    val tblII = Experiments.bucketCounts(res.map(_.pgRel))
    // more near-optimal queries than without re-optimization…
    r.gate(ours("0.8 - 1.2") >= tblII("0.8 - 1.2"),
      s"reopt should grow the near-optimal bucket: reopt=$ours pg=$tblII")
    // …and a no-bigger worst tail
    r.gate(ours("> 5.0") <= tblII("> 5.0"), s"reopt worsened the tail: $ours vs $tblII")
    // headline: re-optimization recovers a large share of the perfect benefit
    val pg = res.map(_.pgMs).sum; val re = res.map(_.reoptMs).sum
    val perfect = res.map(_.perfectMs).sum
    r.gate(re < pg, f"re-optimization must beat pg overall (re=$re%.0f pg=$pg%.0f)")
    println(f"[headline] workload exec: pg=$pg%.0f ms, reopt=$re%.0f ms, " +
      f"perfect=$perfect%.0f ms; reopt improvement=${100 * (pg - re) / pg}%.1f%% " +
      f"(paper: 45%%), share of perfect benefit=${(pg - re) / math.max(pg - perfect, 1e-9)}%.2f")
  })

  /** Fig 1 analogue (headline): the top-20 longest running queries, executed
    * for real on Spark — pg plan vs re-optimization vs perfect plan
    * wall-clock. Paper: re-optimization improves the top-20 by ~27%
    * end-to-end (≥35% execution-only), realizing most of the perfect-estimate
    * benefit.
    */
  val fig1 = new Experiment("fig1", "Fig 1: top-20 longest queries, real Spark execution", real = true)({ r =>
    val top = headline(r.wb).sortBy(-_.pgMs).take(20).map(_.name)
    var pgT = 0.0; var reT = 0.0; var pfT = 0.0
    val rows = top.map { name =>
      val (pg, pf, re, steps) = Experiments.realRun(r.realWb, JobLite.byName(name))
      pgT += pg; pfT += pf; reT += re
      Console.err.println(f"[top20] $name pg=$pg%8.0f ms perfect=$pf%8.0f ms reopt=$re%8.0f ms steps=$steps")
      Seq(name, f"$pg%.0f", f"$pf%.0f", f"$re%.0f", steps)
    }
    table("FIG 1 (top-20 longest queries, real Spark wall-clock ms)",
      Seq("query", "pg plan", "perfect plan", "re-optimized", "reopt steps"),
      rows :+ Seq("TOTAL", f"$pgT%.0f", f"$pfT%.0f", f"$reT%.0f", "-"))
    println(f"[headline] top-20 real: pg=$pgT%.0f ms perfect=$pfT%.0f ms reopt=$reT%.0f ms " +
      f"improvement=${100 * (pgT - reT) / pgT}%.1f%% (paper: 27%% end-to-end / 35%% exec)")
    // soft shape gates — wall-clock at lite scale is noisy
    r.gate(reT < pgT * 1.15, f"re-optimization should not lose on the top-20 (re=$reT%.0f pg=$pgT%.0f)")
    r.gate(pfT < pgT * 1.15, "perfect plans should not lose on the top-20")
  })

  /** Fig 2 analogue: total workload execution under perfect-(n). The paper's
    * finding: n ≤ 3 gives virtually no benefit; the step change arrives at
    * n = 4..5; perfect halves the workload time.
    */
  val fig2 = new Experiment("fig2", "Fig 2: perfect-(n) sweep")({ r =>
    val ns = Vector(0, 1, 2, 3, 4, 5, 6, 8, 10, 17)
    val totals = Experiments.sweep(r.wb, JobLite.all, ns, verbose = true)(
      (ctx, n) => ctx.simRun(ctx.perfectN(n))._1).view.mapValues(_.sum).toMap
    table("FIG 2 (total exec ms under perfect-(n))",
      Seq("n", "total exec (sim ms)", "vs perfect-(0)"),
      ns.map(n => Seq(n, f"${totals(n)}%.0f", f"${totals(n) / totals(0)}%.2f")))
    r.gate(totals(17) < totals(0), "perfect estimates must beat default")
    // n <= 3 gives little benefit (paper: none up to 3). Note: partially
    // corrected estimates can even *hurt* (paper §IV-E / Fig 5) — our sweep
    // shows that as a bump at small n, so the bound is one-sided.
    r.gate(totals(3) > 0.7 * totals(0), s"perfect-(3) already helps too much: $totals")
    // the step change arrives in the middle of the range; by n = 8 nearly all
    // of the perfect benefit is realized
    r.gate(totals(8) < 0.1 * totals(0), s"n=8 should realize most benefit: $totals")
    r.gate(totals(6) < 0.5 * totals(0), s"benefit should arrive by n=6: $totals")
  })

  /** Fig 7 analogue: re-optimization threshold sweep, execution + planning.
    * The paper: τ = 32 best; even τ = 2 only mildly worse than the best;
    * every τ beats no re-optimization.
    */
  val fig7 = new Experiment("fig7", "Fig 7: threshold sweep")({ r =>
    val taus  = Vector(2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 512.0)
    val runs  = Experiments.sweep(r.wb, JobLite.all, taus)((ctx, t) => ctx.simReopt(t, ctx.statsEstimator(_)))
    val sweep = runs.view.mapValues(rs => (rs.map(_.execMs).sum, rs.map(_.planMs).sum)).toMap
    val res = headline(r.wb)
    val pg  = res.map(_.pgMs).sum
    val perfect = res.map(_.perfectMs).sum
    table("FIG 7 (total exec/plan ms by re-optimization threshold)",
      Seq("tau", "exec ms", "plan ms"),
      taus.map(t => Seq(t.toInt, f"${sweep(t)._1}%.0f", f"${sweep(t)._2}%.0f"))
        ++ Seq(Seq("pg (no reopt)", f"$pg%.0f", "-"), Seq("perfect-(17)", f"$perfect%.0f", "-")))
    // every threshold beats not re-optimizing at all
    for (t <- taus) r.gate(sweep(t)._1 <= pg * 1.05, s"tau=$t worse than pg")
    // a low threshold is not catastrophic (paper: τ=2 within ~10% of best exec)
    val best = taus.map(t => sweep(t)._1).min
    r.gate(sweep(2.0)._1 <= 1.6 * best, s"tau=2 degraded too much: ${sweep(2.0)._1} vs $best")
  })

  /** Fig 8 analogue: re-optimization on top of perfect-(n). Paper: helps
    * until about n = 5, after which it is a small risk (~6% at n = 5).
    */
  val fig8 = new Experiment("fig8", "Fig 8: perfect-(n) with and without re-optimization")({ r =>
    val ns    = Vector(0, 1, 2, 3, 4, 5, 6)
    val runs  = Experiments.sweep(r.wb, JobLite.all, ns)((ctx, n) =>
      (ctx.simRun(ctx.perfectN(n))._1, ctx.simReopt(Experiments.Tau, ctx.perfectN(n, _)).execMs))
    val plain = runs.view.mapValues(_.map(_._1).sum).toMap
    val reopt = runs.view.mapValues(_.map(_._2).sum).toMap
    table("FIG 8 (perfect-(n) alone vs + re-optimization)",
      Seq("n", "perfect-(n) ms", "+reopt ms", "reopt/plain"),
      ns.map(n => Seq(n, f"${plain(n)}%.0f", f"${reopt(n)}%.0f", f"${reopt(n) / plain(n)}%.2f")))
    // re-optimization helps markedly when estimates are bad
    r.gate(reopt(0) < plain(0), s"reopt does not help perfect-(0): ${reopt(0)} vs ${plain(0)}")
    // and is at worst a mild regression when estimates are already good
    for (n <- Vector(5, 6)) r.gate(reopt(n) <= plain(n) * 1.3, s"n=$n reopt risk too large")
  })

  val all: Vector[Experiment] = Vector(table1, table2, table3, skew, table6, fig1, fig2, fig7, fig8)

  def byName(name: String): Option[Experiment] = all.find(_.name == name)

  /** `spark-submit --class repro.harness.Paper <jar> <experiment> [sf] [realSf]`
    * prints the experiment's tables and exits non-zero if a gate fails.
    */
  def main(args: Array[String]): Unit = {
    val exp = args.headOption.flatMap(byName).getOrElse {
      System.err.println(s"usage: Paper <${all.map(_.name).mkString("|")}> [sf] [realSf]")
      sys.exit(2)
    }
    lazy val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro-paper")
      .getOrCreate()
    val failures = exp.run(spark, args.lift(1).fold(DefaultSf)(_.toDouble),
                           args.lift(2).fold(DefaultRealSf)(_.toDouble))
    failures.foreach(f => System.err.println(s"[paper] gate failed: $f"))
    sys.exit(if (failures.isEmpty) 0 else 1)
  }
}
