package perfbench

/** The benchmark's own statistics: percentiles over timing samples and the
  * hand-written JSON of its result lines (the build has no JSON library).
  */
object Stats {

  /** The p-th percentile (0 ≤ p ≤ 100) of non-empty `xs`, interpolated
    * linearly between the two closest ranks: rank = p/100 · (n − 1).
    */
  def percentile(xs: Seq[Double], p: Double): Double = {
    require(xs.nonEmpty, "percentile of no samples")
    require(p >= 0 && p <= 100, s"percentile $p out of [0, 100]")
    val s    = xs.sorted
    val rank = p / 100.0 * (s.size - 1)
    val lo   = math.floor(rank).toInt
    val hi   = math.min(lo + 1, s.size - 1)
    s(lo) + (s(hi) - s(lo)) * (rank - lo)
  }

  def median(xs: Seq[Double]): Double = percentile(xs, 50)

  /** Samples strictly above the p-th percentile. A percentile is reported
    * only when at least ten samples lie beyond it.
    */
  def beyond(xs: Seq[Double], p: Double): Int = {
    val v = percentile(xs, p)
    xs.count(_ > v)
  }
}

/** Minimal JSON writer for maps, sequences, strings, booleans and numbers. */
object Json {
  def apply(v: Any): String = v match {
    case null                    => "null"
    case s: String               => quote(s)
    case b: Boolean              => b.toString
    case d: Double               => num(d)
    case f: Float                => num(f.toDouble)
    case n: Int                  => n.toString
    case n: Long                 => n.toString
    case m: collection.Map[_, _] =>
      m.iterator.map { case (k, x) => s"${quote(k.toString)}: ${apply(x)}" }.mkString("{", ", ", "}")
    case xs: Iterable[_]         => xs.iterator.map(apply).mkString("[", ", ", "]")
    case other                   => throw new IllegalArgumentException(s"not JSON-encodable: $other")
  }

  /** Full-precision number; JSON has no NaN or infinity. */
  private def num(d: Double): String = {
    require(!d.isNaN && !d.isInfinite, s"not a JSON number: $d")
    if (d == math.rint(d) && math.abs(d) < 1e15) d.toLong.toString + ".0" else d.toString
  }

  private def quote(s: String): String = {
    val b = new StringBuilder("\"")
    s.foreach {
      case '"'          => b ++= "\\\""
      case '\\'         => b ++= "\\\\"
      case '\n'         => b ++= "\\n"
      case '\t'         => b ++= "\\t"
      case c if c < ' ' => b ++= f"\\u${c.toInt}%04x"
      case c            => b += c
    }
    b += '"'
    b.result()
  }
}
