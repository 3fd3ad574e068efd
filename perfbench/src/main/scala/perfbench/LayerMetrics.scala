package perfbench

/** Per-layer metrics of a traced run, computed from its spans.
  *
  * A run's top-level spans are its phases: `setup` (repeated), `prepare`
  * (once) and `pass` (repeated). Each metric is the median over the setups,
  * plus the prepare phase, plus the median over the passes: the work of one
  * set-up and one pass.
  */
object LayerMetrics {

  /** Layers, by module name, in the order they are reported. */
  val Layers: Vector[String] =
    Vector("imdb", "core.data", "core.stats", "core.truth", "core.ce", "core.opt", "core.exec", "core.reopt", "harness")

  private val SparkRuns = Set("SparkExecutor.run", "SparkBackend.run")
  private val Backend   = Set("SimBackend.run", "SimBackend.materialize", "SparkBackend.run", "SparkBackend.materialize")

  /** (name, unit) of the metrics every workload reports, in output order. */
  val Units: Vector[(String, String)] = Vector(
    "data.collect_ms" -> "ms", "data.rows" -> "count", "stats.analyze_ms" -> "ms",
    "truth.build_ms" -> "ms", "truth.card_ms" -> "ms", "truth.card_calls" -> "count",
    "truth.subsets" -> "count", "truth.memo_hit_ratio" -> "ratio",
    "ce.stats_ms" -> "ms", "ce.stats_calls" -> "count",
    "opt.plan_ms" -> "ms", "opt.enum_ms" -> "ms", "opt.subsets" -> "count", "opt.plan_calls" -> "count",
    "exec.sim_ms" -> "ms",
    "reopt.loop_ms" -> "ms", "reopt.plan_ms" -> "ms", "reopt.replans" -> "count", "reopt.backend_ms" -> "ms",
    "jvm.gc_ms" -> "ms", "jvm.gc_count" -> "count",
    "cfg.pg_ms" -> "ms", "cfg.perfect_ms" -> "ms", "cfg.reopt_ms" -> "ms",
  ) ++ Layers.map(l => s"self.${l}_ms" -> "ms") :+ ("trace.spans" -> "count")

  /** Metrics of real Spark execution, reported by the workloads that run it. */
  val SparkUnits: Vector[(String, String)] = Vector(
    "exec.spark_run_ms" -> "ms", "exec.spark_runs" -> "count", "exec.materialize_ms" -> "ms",
    "exec.materializations" -> "count", "exec.materialized_rows" -> "count",
    "spark.jobs" -> "count", "spark.task_ms" -> "ms")

  /** Metrics of one phase's spans (before the memo ratio). */
  def phase(spans: Seq[Span]): Map[String, Double] = {
    def named(p: String => Boolean) = spans.filter(s => p(s.name))
    def ms(ss: Seq[Span])           = ss.map(_.nanos).sum / 1e6
    def count(ss: Seq[Span], key: String) = ss.map(_.counts.getOrElse(key, 0.0)).sum
    def embeddedMs(layer: String)   = spans.map(_.embedded.getOrElse(layer, 0L)).sum / 1e6
    val plans  = named(_ == "DPPlanner.plan")
    val runs   = named(SparkRuns)
    val mats   = named(_ == "SparkBackend.materialize")
    val reopts = named(_ == "Reoptimizer.run")
    val self   = Trace.layerSelfNanos(spans)
    Map(
      "data.collect_ms"        -> ms(named(_ == "LocalDB.collect")),
      "data.rows"              -> count(named(_ == "LocalDB.collect"), "rows"),
      "stats.analyze_ms"       -> ms(named(_ == "Analyzer.analyze")),
      "truth.build_ms"         -> ms(named(_ == "QueryCtx.new")),
      "truth.card_ms"          -> embeddedMs("core.truth"),
      "truth.card_calls"       -> count(spans, "core.truth.calls"),
      "truth.subsets"          -> count(spans, "truth.subsets"),
      "ce.stats_ms"            -> embeddedMs("core.ce"),
      "ce.stats_calls"         -> count(spans, "core.ce.calls"),
      "opt.plan_ms"            -> ms(plans),
      "opt.enum_ms"            -> plans.map(s => s.nanos - s.embedded.values.sum).sum / 1e6,
      "opt.subsets"            -> count(plans, "subsets"),
      "opt.plan_calls"         -> plans.size.toDouble,
      "exec.sim_ms"            -> ms(named(_ == "SimExecutor.executionWork")),
      "exec.spark_run_ms"      -> count(runs, "exec_ms"),
      "exec.spark_runs"        -> runs.size.toDouble,
      "exec.materialize_ms"    -> count(mats, "exec_ms"),
      "exec.materializations"  -> mats.size.toDouble,
      "exec.materialized_rows" -> count(mats, "materialized_rows"),
      "spark.jobs"             -> count(spans, "spark.jobs"),
      "spark.task_ms"          -> count(spans, "spark.task_ms"),
      "reopt.loop_ms"          -> ms(reopts),
      "reopt.plan_ms"          -> count(reopts, "plan_ms"),
      "reopt.replans"          -> count(reopts, "replans"),
      "reopt.backend_ms"       -> ms(named(Backend)),
      "jvm.gc_ms"              -> count(spans, "jvm.gc_ms"),
      "jvm.gc_count"           -> count(spans, "jvm.gc_count"),
      "cfg.pg_ms"              -> ms(named(_ == "config:pg")),
      "cfg.perfect_ms"         -> ms(named(_ == "config:perfect")),
      "cfg.reopt_ms"           -> ms(named(_ == "config:reopt")),
      "trace.spans"            -> spans.size.toDouble,
    ) ++ Layers.map(l => s"self.${l}_ms" -> self.getOrElse(l, 0L) / 1e6)
  }

  /** All metrics of a traced run, as (name, value, unit). */
  def apply(spans: Seq[Span], spark: Boolean): Seq[(String, Double, String)] = {
    val roots = spans.filter(_.parent < 0)
    def phases(name: String) = roots.filter(_.name == name).map(r => phase(Trace.subtree(spans, r)))
    def medians(ms: Seq[Map[String, Double]]) =
      if (ms.isEmpty) Map.empty[String, Double]
      else ms.head.keys.map(k => k -> Stats.median(ms.map(_(k)))).toMap
    val parts = Seq(medians(phases("setup")), medians(phases("prepare")), medians(phases("pass")))
    val sum   = parts.flatMap(_.toSeq).groupMapReduce(_._1)(_._2)(_ + _)
    val calls = sum("truth.card_calls")
    val all   = sum + ("truth.memo_hit_ratio" -> (if (calls > 0) 1.0 - sum("truth.subsets") / calls else 0.0))
    (Units ++ (if (spark) SparkUnits else Nil)).map { case (n, u) => (n, all(n), u) }
  }
}
