package repro.workload

import repro.imdb.Schema

/** The JOB-lite workload: 113 select-project-join queries over IMDB-lite.
  *
  * Mirrors the Join Order Benchmark's structure (Leis et al., which the paper
  * evaluates): 33 query families, each with a fixed join graph and several
  * variants that differ only in filter constants — and a per-query table
  * count distribution that matches the paper's Table III *exactly*:
  *
  *   4:3, 5:20, 6:2, 7:16, 8:21, 9:14, 10:7, 11:10, 12:11, 14:6, 17:3  (=113)
  *
  * Join structure is declared per-alias: each alias contributes its join
  * columns to named equivalence classes (e.g. every movie-side alias binds
  * its movie_id into class "m"), which reproduces JOB's transitive-closure
  * join predicates and hence its connected-subgraph explosion (Table I).
  * Classes that end up with a single member (because the partner alias is
  * absent from the family) are dropped.
  */
object JobLite {

  /** table behind each alias */
  private val aliasTable: Map[String, String] = Map(
    "t" -> "title", "t2" -> "title", "kt" -> "kind_type",
    "ci" -> "cast_info", "n" -> "name", "an" -> "aka_name",
    "pi" -> "person_info", "it3" -> "info_type", "rt" -> "role_type",
    "chn" -> "char_name", "mk" -> "movie_keyword", "k" -> "keyword",
    "mi" -> "movie_info", "it1" -> "info_type",
    "midx" -> "movie_info_idx", "it2" -> "info_type",
    "mc" -> "movie_companies", "cn" -> "company_name", "ct" -> "company_type",
    "cc" -> "complete_cast", "cct1" -> "comp_cast_type", "cct2" -> "comp_cast_type",
    "ml" -> "movie_link", "lt" -> "link_type",
  )

  /** join-column → class-key bindings contributed by each alias when present */
  private val aliasBinds: Map[String, Seq[(String, String)]] = Map(
    "t"    -> Seq("id" -> "m", "kind_id" -> "kd"),
    "t2"   -> Seq("id" -> "m2"),
    "kt"   -> Seq("id" -> "kd"),
    "ci"   -> Seq("movie_id" -> "m", "person_id" -> "p",
                  "role_id" -> "rl", "person_role_id" -> "ch"),
    "n"    -> Seq("id" -> "p"),
    "an"   -> Seq("person_id" -> "p"),
    "pi"   -> Seq("person_id" -> "p", "info_type_id" -> "it3c"),
    "it3"  -> Seq("id" -> "it3c"),
    "rt"   -> Seq("id" -> "rl"),
    "chn"  -> Seq("id" -> "ch"),
    "mk"   -> Seq("movie_id" -> "m", "keyword_id" -> "kw"),
    "k"    -> Seq("id" -> "kw"),
    "mi"   -> Seq("movie_id" -> "m", "info_type_id" -> "it1c"),
    "it1"  -> Seq("id" -> "it1c"),
    "midx" -> Seq("movie_id" -> "m", "info_type_id" -> "it2c"),
    "it2"  -> Seq("id" -> "it2c"),
    "mc"   -> Seq("movie_id" -> "m", "company_id" -> "cmp", "company_type_id" -> "ctp"),
    "cn"   -> Seq("id" -> "cmp"),
    "ct"   -> Seq("id" -> "ctp"),
    "cc"   -> Seq("movie_id" -> "m", "subject_id" -> "cct1c", "status_id" -> "cct2c"),
    "cct1" -> Seq("id" -> "cct1c"),
    "cct2" -> Seq("id" -> "cct2c"),
    "ml"   -> Seq("movie_id" -> "m", "linked_movie_id" -> "m2", "link_type_id" -> "ltc"),
    "lt"   -> Seq("id" -> "ltc"),
  )

  /** Assemble a QuerySpec from an alias list + per-alias filters. */
  def build(name: String, aliases: Seq[String], filters: Map[String, Vector[Pred]]): QuerySpec = {
    require(aliases.distinct.size == aliases.size, s"$name: duplicate alias")
    val rels = aliases.toVector.map(a => Relation(a, aliasTable(a)))
    val idx  = aliases.zipWithIndex.toMap
    val byClass = scala.collection.mutable.LinkedHashMap.empty[String, Vector[(Int, String)]]
    for (a <- aliases; (col, key) <- aliasBinds(a))
      byClass(key) = byClass.getOrElse(key, Vector.empty) :+ ((idx(a), col))
    val classes = byClass.values.filter(_.size >= 2).map(JoinClass(_)).toVector
    for ((a, ps) <- filters; p <- ps) {
      require(idx.contains(a), s"$name: filter on unknown alias $a")
      require(Schema.columns(aliasTable(a)).contains(p.column),
              s"$name: $a (${aliasTable(a)}) has no column ${p.column}")
    }
    val fmap = filters.collect { case (a, ps) if ps.nonEmpty => idx(a) -> ps }
    QuerySpec(name, rels, classes, fmap)
  }

  // ---- filter shorthands -------------------------------------------------
  private def eqp(c: String, v: Long)            = EqPred(c, v)
  private def rng(c: String, lo: Long, hi: Long) = RangePred(c, lo, hi)

  private val tY1 = rng("production_year", 2000, 2019)
  private val tY2 = rng("production_year", 1990, 2019)
  private val tY3 = rng("production_year", 1950, 1980)
  private val tY4 = rng("production_year", 2010, 2019)
  private val kPop  = eqp("keyword_group", 0)  // the frequent keywords (paper 6d skew)
  private val kMid  = eqp("keyword_group", 10)
  private val kLo   = rng("keyword_group", 0, 2)
  private val kRare = eqp("keyword_group", 19)
  private val nM   = eqp("gender", 1)
  private val nF   = eqp("gender", 2)
  private val nG0  = eqp("name_group", 0)
  private val nGlo = rng("name_group", 0, 5)
  private val nGmid= rng("name_group", 10, 20)
  private val nS   = eqp("surname_group", 3)
  private val mxHi = rng("rating_bucket", 8, 9) // selects popular movies (correlation)
  private val mx9  = eqp("rating_bucket", 9)
  private val mxGe6= rng("rating_bucket", 6, 9)
  private val mxLo = rng("rating_bucket", 0, 3)
  private val miHi = rng("info_group", 80, 99)  // selects popular movies (correlation)
  private val miMid= rng("info_group", 40, 60)
  private val miLo = rng("info_group", 0, 10)
  private val cn0  = eqp("country_group", 0)    // the big studios (popular companies)
  private val cn5  = eqp("country_group", 5)
  private val cnLo = rng("country_group", 0, 3)
  private val piHi = rng("pinfo_group", 30, 49)
  private val piLo = rng("pinfo_group", 0, 5)
  private val anLo = rng("aname_group", 0, 10)
  private val chnLo= rng("chname_group", 0, 10)
  private val chn50= eqp("chname_group", 50)

  private type V = Map[String, Vector[Pred]]

  private def fam(id: String, aliases: Seq[String])(variants: V*): Vector[QuerySpec] =
    variants.zipWithIndex.map { case (v, i) =>
      build(s"$id${('a' + i).toChar}", aliases, v)
    }.toVector

  /** All 113 queries, in family order. */
  lazy val all: Vector[QuerySpec] = Vector(
    // ---- size 4 (3 queries) ----
    fam("q01", Seq("k", "mk", "ml", "lt"))(
      Map("k" -> Vector(kPop), "lt" -> Vector(eqp("link_group", 0))),
      Map("k" -> Vector(kMid), "lt" -> Vector(eqp("link_group", 1))),
      Map("k" -> Vector(kLo),  "lt" -> Vector(rng("link_group", 0, 2))),
    ),
    // ---- size 5 (20 queries) ----
    fam("q02", Seq("ct", "it2", "mc", "midx", "t"))(
      Map("ct" -> Vector(eqp("id", 1)), "it2" -> Vector(eqp("id", 38)), "midx" -> Vector(mxHi)),
      Map("ct" -> Vector(eqp("id", 2)), "it2" -> Vector(eqp("id", 35)), "midx" -> Vector(mxGe6), "t" -> Vector(tY1)),
      Map("ct" -> Vector(eqp("id", 1)), "it2" -> Vector(eqp("id", 40)), "midx" -> Vector(mx9), "t" -> Vector(tY2)),
      Map("ct" -> Vector(eqp("id", 1)), "it2" -> Vector(eqp("id", 37)), "midx" -> Vector(mxLo), "t" -> Vector(tY3)),
    ),
    fam("q03", Seq("t", "ci", "n", "rt", "chn"))(
      Map("n" -> Vector(nM, nGlo), "rt" -> Vector(eqp("id", 1)), "chn" -> Vector(chnLo)),
      Map("n" -> Vector(nF, nG0),  "rt" -> Vector(eqp("id", 2)), "t" -> Vector(tY1)),
      Map("n" -> Vector(nM, nGmid), "rt" -> Vector(eqp("category", 0)), "chn" -> Vector(chn50)),
      Map("n" -> Vector(nS), "rt" -> Vector(eqp("id", 5)), "t" -> Vector(tY4)),
    ),
    fam("q04", Seq("t", "mk", "k", "mi", "it1"))(
      Map("k" -> Vector(kPop), "it1" -> Vector(eqp("id", 1)), "mi" -> Vector(miHi)),
      Map("k" -> Vector(kMid), "it1" -> Vector(eqp("id", 5)), "mi" -> Vector(miMid), "t" -> Vector(tY1)),
      Map("k" -> Vector(kRare), "it1" -> Vector(eqp("domain", 2)), "mi" -> Vector(miLo)),
      Map("k" -> Vector(kLo), "it1" -> Vector(eqp("id", 2)), "t" -> Vector(tY2)),
    ),
    fam("q05", Seq("t", "mc", "cn", "ct", "kt"))(
      Map("cn" -> Vector(cn0), "ct" -> Vector(eqp("id", 1)), "kt" -> Vector(eqp("id", 1))),
      Map("cn" -> Vector(cn5), "ct" -> Vector(eqp("id", 2)), "kt" -> Vector(eqp("id", 2)), "t" -> Vector(tY1)),
      Map("cn" -> Vector(cnLo), "ct" -> Vector(eqp("id", 1)), "kt" -> Vector(eqp("is_series", 1)), "t" -> Vector(tY2)),
      Map("cn" -> Vector(cn0), "ct" -> Vector(eqp("id", 2)), "kt" -> Vector(eqp("id", 3)), "t" -> Vector(tY3)),
    ),
    // q06 is the paper's 6d analogue: frequent keyword + popular-person skew.
    fam("q06", Seq("t", "ci", "mk", "k", "n"))(
      Map("k" -> Vector(kPop), "n" -> Vector(nGlo)),
      Map("k" -> Vector(kPop), "n" -> Vector(nM, nG0)),
      Map("k" -> Vector(kMid), "n" -> Vector(nF)),
      Map("k" -> Vector(kRare), "n" -> Vector(nGmid), "t" -> Vector(tY1)),
    ),
    // ---- size 6 (2 queries) ----
    fam("q07", Seq("t", "ci", "mi", "midx", "it1", "it2"))(
      Map("midx" -> Vector(mxHi), "it1" -> Vector(eqp("id", 1)), "it2" -> Vector(eqp("id", 38)), "mi" -> Vector(miHi)),
      Map("midx" -> Vector(mxGe6), "it1" -> Vector(eqp("id", 3)), "it2" -> Vector(eqp("id", 36)), "t" -> Vector(tY1)),
    ),
    // ---- size 7 (16 queries) ----
    // q08 is the paper's 18a analogue: it2⋈midx underestimated via correlation.
    fam("q08", Seq("t", "ci", "n", "mi", "midx", "it1", "it2"))(
      Map("n" -> Vector(nM, nGlo), "midx" -> Vector(mxHi), "it1" -> Vector(eqp("id", 1)), "it2" -> Vector(eqp("id", 38))),
      Map("n" -> Vector(nM, nG0), "midx" -> Vector(mx9), "it1" -> Vector(eqp("id", 2)), "it2" -> Vector(eqp("id", 35)), "mi" -> Vector(miHi)),
      Map("n" -> Vector(nF), "midx" -> Vector(mxGe6), "it1" -> Vector(eqp("id", 5)), "it2" -> Vector(eqp("id", 40)), "mi" -> Vector(miMid)),
      Map("n" -> Vector(nS), "midx" -> Vector(mxLo), "it1" -> Vector(eqp("domain", 1)), "it2" -> Vector(eqp("id", 37)), "t" -> Vector(tY3)),
    ),
    fam("q09", Seq("t", "ci", "n", "mk", "k", "mc", "cn"))(
      Map("k" -> Vector(kPop), "n" -> Vector(nGlo), "cn" -> Vector(cn0)),
      Map("k" -> Vector(kMid), "n" -> Vector(nM), "cn" -> Vector(cnLo), "t" -> Vector(tY1)),
      Map("k" -> Vector(kLo), "n" -> Vector(nF, nGmid), "cn" -> Vector(cn5)),
      Map("k" -> Vector(kPop), "n" -> Vector(nS), "cn" -> Vector(cn0), "t" -> Vector(tY4)),
    ),
    fam("q10", Seq("t", "ci", "chn", "n", "rt", "mc", "cn"))(
      Map("chn" -> Vector(chnLo), "rt" -> Vector(eqp("id", 1)), "cn" -> Vector(cn0)),
      Map("chn" -> Vector(chn50), "rt" -> Vector(eqp("id", 2)), "cn" -> Vector(cn5), "n" -> Vector(nM)),
      Map("chn" -> Vector(chnLo), "rt" -> Vector(eqp("category", 0)), "cn" -> Vector(cnLo), "t" -> Vector(tY1)),
      Map("chn" -> Vector(rng("chname_group", 20, 40)), "rt" -> Vector(eqp("id", 6)), "cn" -> Vector(cn0), "n" -> Vector(nF)),
    ),
    fam("q11", Seq("t", "kt", "mi", "midx", "it1", "it2", "mc"))(
      Map("kt" -> Vector(eqp("id", 1)), "midx" -> Vector(mxHi), "it1" -> Vector(eqp("id", 1)), "it2" -> Vector(eqp("id", 38)), "mc" -> Vector(eqp("company_type_id", 1))),
      Map("kt" -> Vector(eqp("id", 2)), "midx" -> Vector(mxGe6), "it1" -> Vector(eqp("id", 4)), "it2" -> Vector(eqp("id", 36)), "mi" -> Vector(miHi)),
      Map("kt" -> Vector(eqp("is_series", 1)), "midx" -> Vector(mx9), "it1" -> Vector(eqp("domain", 0)), "it2" -> Vector(eqp("id", 35)), "t" -> Vector(tY1)),
      Map("kt" -> Vector(eqp("id", 1)), "midx" -> Vector(mxLo), "it1" -> Vector(eqp("id", 7)), "it2" -> Vector(eqp("id", 39)), "t" -> Vector(tY3)),
    ),
    // ---- size 8 (21 queries) ----
    fam("q12", Seq("t", "ci", "n", "an", "mk", "k", "mc", "cn"))(
      Map("k" -> Vector(kPop), "an" -> Vector(anLo), "cn" -> Vector(cn0)),
      Map("k" -> Vector(kMid), "an" -> Vector(anLo), "cn" -> Vector(cnLo), "n" -> Vector(nM)),
      Map("k" -> Vector(kLo), "an" -> Vector(rng("aname_group", 20, 30)), "cn" -> Vector(cn5), "t" -> Vector(tY1)),
    ),
    fam("q13", Seq("t", "ci", "n", "pi", "it3", "mi", "it1", "midx"))(
      Map("pi" -> Vector(piHi), "it3" -> Vector(eqp("id", 2)), "it1" -> Vector(eqp("id", 1)), "midx" -> Vector(mxHi)),
      Map("pi" -> Vector(piLo), "it3" -> Vector(eqp("id", 5)), "it1" -> Vector(eqp("id", 3)), "midx" -> Vector(mxGe6), "n" -> Vector(nM)),
      Map("pi" -> Vector(piHi), "it3" -> Vector(eqp("domain", 1)), "it1" -> Vector(eqp("id", 2)), "midx" -> Vector(mxLo), "mi" -> Vector(miMid)),
    ),
    fam("q14", Seq("t", "kt", "cc", "cct1", "cct2", "mc", "cn", "ct"))(
      Map("kt" -> Vector(eqp("id", 1)), "cct1" -> Vector(eqp("id", 1)), "cct2" -> Vector(eqp("id", 3)), "cn" -> Vector(cn0), "ct" -> Vector(eqp("id", 1))),
      Map("kt" -> Vector(eqp("id", 2)), "cct1" -> Vector(eqp("id", 2)), "cct2" -> Vector(eqp("id", 4)), "cn" -> Vector(cnLo), "ct" -> Vector(eqp("id", 2))),
      Map("kt" -> Vector(eqp("is_series", 1)), "cct1" -> Vector(eqp("id", 1)), "cct2" -> Vector(eqp("id", 4)), "cn" -> Vector(cn5), "ct" -> Vector(eqp("id", 1)), "t" -> Vector(tY1)),
    ),
    fam("q15", Seq("t", "mk", "k", "ml", "lt", "t2", "mc", "cn"))(
      Map("k" -> Vector(kPop), "lt" -> Vector(eqp("link_group", 0)), "cn" -> Vector(cn0)),
      Map("k" -> Vector(kMid), "lt" -> Vector(eqp("link_group", 1)), "cn" -> Vector(cnLo), "t" -> Vector(tY1)),
      Map("k" -> Vector(kLo), "lt" -> Vector(rng("link_group", 0, 2)), "cn" -> Vector(cn5), "t2" -> Vector(tY2)),
    ),
    fam("q16", Seq("t", "ci", "n", "rt", "chn", "mk", "k", "mi"))(
      Map("k" -> Vector(kPop), "rt" -> Vector(eqp("id", 1)), "chn" -> Vector(chnLo), "mi" -> Vector(miHi)),
      Map("k" -> Vector(kMid), "rt" -> Vector(eqp("id", 2)), "chn" -> Vector(chn50), "n" -> Vector(nF)),
      Map("k" -> Vector(kLo), "rt" -> Vector(eqp("category", 0)), "chn" -> Vector(chnLo), "mi" -> Vector(miMid), "t" -> Vector(tY1)),
    ),
    fam("q17", Seq("t", "mi", "it1", "midx", "it2", "mc", "cn", "ct"))(
      Map("it1" -> Vector(eqp("id", 1)), "it2" -> Vector(eqp("id", 38)), "midx" -> Vector(mxHi), "cn" -> Vector(cn0), "ct" -> Vector(eqp("id", 1))),
      Map("it1" -> Vector(eqp("id", 6)), "it2" -> Vector(eqp("id", 35)), "midx" -> Vector(mxGe6), "cn" -> Vector(cnLo), "ct" -> Vector(eqp("id", 2)), "mi" -> Vector(miHi)),
      Map("it1" -> Vector(eqp("domain", 3)), "it2" -> Vector(eqp("id", 40)), "midx" -> Vector(mxLo), "cn" -> Vector(cn5), "ct" -> Vector(eqp("id", 1)), "t" -> Vector(tY2)),
    ),
    fam("q18", Seq("t", "kt", "ci", "n", "mc", "cn", "ct", "rt"))(
      Map("kt" -> Vector(eqp("id", 1)), "n" -> Vector(nM, nGlo), "cn" -> Vector(cn0), "ct" -> Vector(eqp("id", 1)), "rt" -> Vector(eqp("id", 1))),
      Map("kt" -> Vector(eqp("id", 2)), "n" -> Vector(nF), "cn" -> Vector(cnLo), "ct" -> Vector(eqp("id", 2)), "rt" -> Vector(eqp("id", 2)), "t" -> Vector(tY1)),
      Map("kt" -> Vector(eqp("is_series", 1)), "n" -> Vector(nG0), "cn" -> Vector(cn5), "ct" -> Vector(eqp("id", 1)), "rt" -> Vector(eqp("category", 1))),
    ),
    // ---- size 9 (14 queries) ----
    fam("q19", Seq("t", "ci", "n", "an", "mk", "k", "mc", "cn", "rt"))(
      Map("k" -> Vector(kPop), "an" -> Vector(anLo), "cn" -> Vector(cn0), "rt" -> Vector(eqp("id", 1))),
      Map("k" -> Vector(kMid), "an" -> Vector(anLo), "cn" -> Vector(cnLo), "rt" -> Vector(eqp("id", 2)), "n" -> Vector(nF)),
    ),
    fam("q20", Seq("t", "ci", "n", "pi", "it3", "mi", "it1", "midx", "it2"))(
      Map("pi" -> Vector(piHi), "it3" -> Vector(eqp("id", 2)), "it1" -> Vector(eqp("id", 1)), "it2" -> Vector(eqp("id", 38)), "midx" -> Vector(mxHi)),
      Map("pi" -> Vector(piLo), "it3" -> Vector(eqp("id", 4)), "it1" -> Vector(eqp("id", 2)), "it2" -> Vector(eqp("id", 36)), "midx" -> Vector(mxGe6), "n" -> Vector(nM)),
    ),
    fam("q21", Seq("t", "cc", "cct1", "cct2", "mk", "k", "mc", "cn", "ct"))(
      Map("cct1" -> Vector(eqp("id", 1)), "cct2" -> Vector(eqp("id", 3)), "k" -> Vector(kPop), "cn" -> Vector(cn0), "ct" -> Vector(eqp("id", 1))),
      Map("cct1" -> Vector(eqp("id", 2)), "cct2" -> Vector(eqp("id", 4)), "k" -> Vector(kMid), "cn" -> Vector(cnLo), "ct" -> Vector(eqp("id", 2))),
    ),
    fam("q22", Seq("t", "ci", "chn", "n", "mi", "it1", "mk", "k", "rt"))(
      Map("chn" -> Vector(chnLo), "it1" -> Vector(eqp("id", 1)), "k" -> Vector(kPop), "rt" -> Vector(eqp("id", 1)), "mi" -> Vector(miHi)),
      Map("chn" -> Vector(chn50), "it1" -> Vector(eqp("id", 5)), "k" -> Vector(kMid), "rt" -> Vector(eqp("id", 2)), "n" -> Vector(nM)),
    ),
    fam("q23", Seq("t", "kt", "mi", "it1", "midx", "it2", "mc", "cn", "ct"))(
      Map("kt" -> Vector(eqp("id", 1)), "it1" -> Vector(eqp("id", 1)), "it2" -> Vector(eqp("id", 38)), "midx" -> Vector(mxHi), "cn" -> Vector(cn0), "ct" -> Vector(eqp("id", 1))),
      Map("kt" -> Vector(eqp("id", 2)), "it1" -> Vector(eqp("id", 3)), "it2" -> Vector(eqp("id", 37)), "midx" -> Vector(mxGe6), "cn" -> Vector(cnLo), "ct" -> Vector(eqp("id", 2)), "t" -> Vector(tY1)),
    ),
    fam("q24", Seq("t", "ci", "n", "mk", "k", "mc", "cn", "ct", "kt"))(
      Map("k" -> Vector(kPop), "n" -> Vector(nGlo), "cn" -> Vector(cn0), "ct" -> Vector(eqp("id", 1)), "kt" -> Vector(eqp("id", 1))),
      Map("k" -> Vector(kMid), "n" -> Vector(nM), "cn" -> Vector(cnLo), "ct" -> Vector(eqp("id", 2)), "kt" -> Vector(eqp("id", 2)), "t" -> Vector(tY1)),
    ),
    fam("q25", Seq("t", "ml", "lt", "t2", "mi", "it1", "midx", "it2", "kt"))(
      Map("lt" -> Vector(eqp("link_group", 0)), "it1" -> Vector(eqp("id", 1)), "it2" -> Vector(eqp("id", 38)), "midx" -> Vector(mxHi), "kt" -> Vector(eqp("id", 1))),
      Map("lt" -> Vector(eqp("link_group", 1)), "it1" -> Vector(eqp("id", 2)), "it2" -> Vector(eqp("id", 35)), "midx" -> Vector(mxGe6), "kt" -> Vector(eqp("id", 2)), "t2" -> Vector(tY1)),
    ),
    // ---- size 10 (7 queries) ----
    fam("q26", Seq("t", "ci", "n", "rt", "chn", "mk", "k", "mc", "cn", "ct"))(
      Map("k" -> Vector(kPop), "rt" -> Vector(eqp("id", 1)), "chn" -> Vector(chnLo), "cn" -> Vector(cn0), "ct" -> Vector(eqp("id", 1))),
      Map("k" -> Vector(kPop), "rt" -> Vector(eqp("id", 2)), "chn" -> Vector(chn50), "cn" -> Vector(cnLo), "ct" -> Vector(eqp("id", 2)), "n" -> Vector(nM)),
      Map("k" -> Vector(kMid), "rt" -> Vector(eqp("category", 0)), "chn" -> Vector(chnLo), "cn" -> Vector(cn5), "ct" -> Vector(eqp("id", 1)), "n" -> Vector(nF)),
      Map("k" -> Vector(kLo), "rt" -> Vector(eqp("id", 3)), "chn" -> Vector(rng("chname_group", 30, 60)), "cn" -> Vector(cn0), "ct" -> Vector(eqp("id", 2)), "t" -> Vector(tY1)),
      Map("k" -> Vector(kRare), "rt" -> Vector(eqp("id", 1)), "chn" -> Vector(chnLo), "cn" -> Vector(cnLo), "ct" -> Vector(eqp("id", 1)), "t" -> Vector(tY3)),
      Map("k" -> Vector(kPop), "rt" -> Vector(eqp("id", 6)), "chn" -> Vector(chnLo), "cn" -> Vector(cn0), "ct" -> Vector(eqp("id", 1)), "n" -> Vector(nS)),
      Map("k" -> Vector(kMid), "rt" -> Vector(eqp("id", 2)), "chn" -> Vector(chn50), "cn" -> Vector(cn0), "ct" -> Vector(eqp("id", 2)), "t" -> Vector(tY4)),
    ),
    // ---- size 11 (10 queries) ----
    fam("q27", Seq("t", "ci", "n", "an", "rt", "chn", "mk", "k", "mc", "cn", "ct"))(
      Map("k" -> Vector(kPop), "an" -> Vector(anLo), "rt" -> Vector(eqp("id", 1)), "chn" -> Vector(chnLo), "cn" -> Vector(cn0), "ct" -> Vector(eqp("id", 1))),
      Map("k" -> Vector(kMid), "an" -> Vector(anLo), "rt" -> Vector(eqp("id", 2)), "chn" -> Vector(chn50), "cn" -> Vector(cnLo), "ct" -> Vector(eqp("id", 2))),
      Map("k" -> Vector(kLo), "an" -> Vector(rng("aname_group", 10, 30)), "rt" -> Vector(eqp("category", 0)), "chn" -> Vector(chnLo), "cn" -> Vector(cn5), "ct" -> Vector(eqp("id", 1)), "n" -> Vector(nM)),
      Map("k" -> Vector(kPop), "an" -> Vector(anLo), "rt" -> Vector(eqp("id", 3)), "chn" -> Vector(chnLo), "cn" -> Vector(cn0), "ct" -> Vector(eqp("id", 2)), "t" -> Vector(tY1)),
      Map("k" -> Vector(kRare), "an" -> Vector(anLo), "rt" -> Vector(eqp("id", 1)), "chn" -> Vector(chn50), "cn" -> Vector(cnLo), "ct" -> Vector(eqp("id", 1)), "n" -> Vector(nF)),
    ),
    fam("q28", Seq("t", "kt", "ci", "n", "mi", "it1", "midx", "it2", "mc", "cn", "ct"))(
      Map("kt" -> Vector(eqp("id", 1)), "it1" -> Vector(eqp("id", 1)), "it2" -> Vector(eqp("id", 38)), "midx" -> Vector(mxHi), "cn" -> Vector(cn0), "ct" -> Vector(eqp("id", 1))),
      Map("kt" -> Vector(eqp("id", 2)), "it1" -> Vector(eqp("id", 2)), "it2" -> Vector(eqp("id", 36)), "midx" -> Vector(mxGe6), "cn" -> Vector(cnLo), "ct" -> Vector(eqp("id", 2)), "n" -> Vector(nM)),
      Map("kt" -> Vector(eqp("is_series", 1)), "it1" -> Vector(eqp("id", 4)), "it2" -> Vector(eqp("id", 35)), "midx" -> Vector(mx9), "cn" -> Vector(cn5), "ct" -> Vector(eqp("id", 1)), "mi" -> Vector(miHi)),
      Map("kt" -> Vector(eqp("id", 1)), "it1" -> Vector(eqp("domain", 2)), "it2" -> Vector(eqp("id", 39)), "midx" -> Vector(mxLo), "cn" -> Vector(cn0), "ct" -> Vector(eqp("id", 2)), "t" -> Vector(tY3)),
      Map("kt" -> Vector(eqp("id", 3)), "it1" -> Vector(eqp("id", 6)), "it2" -> Vector(eqp("id", 40)), "midx" -> Vector(mxHi), "cn" -> Vector(cnLo), "ct" -> Vector(eqp("id", 1)), "n" -> Vector(nF)),
    ),
    // ---- size 12 (11 queries) ----
    fam("q29", Seq("t", "kt", "ci", "n", "rt", "mi", "it1", "midx", "it2", "mc", "cn", "ct"))(
      Map("kt" -> Vector(eqp("id", 1)), "rt" -> Vector(eqp("id", 1)), "it1" -> Vector(eqp("id", 1)), "it2" -> Vector(eqp("id", 38)), "midx" -> Vector(mxHi), "cn" -> Vector(cn0), "ct" -> Vector(eqp("id", 1))),
      Map("kt" -> Vector(eqp("id", 2)), "rt" -> Vector(eqp("id", 2)), "it1" -> Vector(eqp("id", 3)), "it2" -> Vector(eqp("id", 36)), "midx" -> Vector(mxGe6), "cn" -> Vector(cnLo), "ct" -> Vector(eqp("id", 2)), "n" -> Vector(nM)),
      Map("kt" -> Vector(eqp("id", 1)), "rt" -> Vector(eqp("category", 0)), "it1" -> Vector(eqp("id", 2)), "it2" -> Vector(eqp("id", 35)), "midx" -> Vector(mx9), "cn" -> Vector(cn5), "ct" -> Vector(eqp("id", 1)), "mi" -> Vector(miHi)),
      Map("kt" -> Vector(eqp("is_series", 1)), "rt" -> Vector(eqp("id", 4)), "it1" -> Vector(eqp("id", 5)), "it2" -> Vector(eqp("id", 37)), "midx" -> Vector(mxLo), "cn" -> Vector(cn0), "ct" -> Vector(eqp("id", 2)), "t" -> Vector(tY2)),
      Map("kt" -> Vector(eqp("id", 3)), "rt" -> Vector(eqp("id", 1)), "it1" -> Vector(eqp("domain", 0)), "it2" -> Vector(eqp("id", 39)), "midx" -> Vector(mxHi), "cn" -> Vector(cnLo), "ct" -> Vector(eqp("id", 1)), "n" -> Vector(nF)),
    ),
    fam("q30", Seq("t", "ci", "n", "pi", "it3", "an", "mk", "k", "mc", "cn", "ct", "kt"))(
      Map("k" -> Vector(kPop), "pi" -> Vector(piHi), "it3" -> Vector(eqp("id", 2)), "an" -> Vector(anLo), "cn" -> Vector(cn0), "ct" -> Vector(eqp("id", 1)), "kt" -> Vector(eqp("id", 1))),
      Map("k" -> Vector(kMid), "pi" -> Vector(piLo), "it3" -> Vector(eqp("id", 5)), "an" -> Vector(anLo), "cn" -> Vector(cnLo), "ct" -> Vector(eqp("id", 2)), "kt" -> Vector(eqp("id", 2))),
      Map("k" -> Vector(kLo), "pi" -> Vector(piHi), "it3" -> Vector(eqp("domain", 1)), "an" -> Vector(rng("aname_group", 5, 25)), "cn" -> Vector(cn5), "ct" -> Vector(eqp("id", 1)), "kt" -> Vector(eqp("id", 3)), "n" -> Vector(nM)),
      Map("k" -> Vector(kPop), "pi" -> Vector(piHi), "it3" -> Vector(eqp("id", 1)), "an" -> Vector(anLo), "cn" -> Vector(cn0), "ct" -> Vector(eqp("id", 2)), "kt" -> Vector(eqp("is_series", 1)), "t" -> Vector(tY1)),
      Map("k" -> Vector(kRare), "pi" -> Vector(piLo), "it3" -> Vector(eqp("id", 3)), "an" -> Vector(anLo), "cn" -> Vector(cnLo), "ct" -> Vector(eqp("id", 1)), "kt" -> Vector(eqp("id", 1)), "n" -> Vector(nF)),
      Map("k" -> Vector(kPop), "pi" -> Vector(piHi), "it3" -> Vector(eqp("id", 4)), "an" -> Vector(anLo), "cn" -> Vector(cn0), "ct" -> Vector(eqp("id", 1)), "kt" -> Vector(eqp("id", 2)), "n" -> Vector(nGlo)),
    ),
    // ---- size 14 (6 queries) ----
    fam("q31", Seq("t", "kt", "ci", "n", "rt", "chn", "mk", "k", "mi", "it1", "midx", "it2", "mc", "cn"))(
      Map("k" -> Vector(kPop), "kt" -> Vector(eqp("id", 1)), "rt" -> Vector(eqp("id", 1)), "chn" -> Vector(chnLo), "it1" -> Vector(eqp("id", 1)), "it2" -> Vector(eqp("id", 38)), "midx" -> Vector(mxHi), "cn" -> Vector(cn0)),
      Map("k" -> Vector(kMid), "kt" -> Vector(eqp("id", 2)), "rt" -> Vector(eqp("id", 2)), "chn" -> Vector(chn50), "it1" -> Vector(eqp("id", 2)), "it2" -> Vector(eqp("id", 36)), "midx" -> Vector(mxGe6), "cn" -> Vector(cnLo), "n" -> Vector(nM)),
      Map("k" -> Vector(kLo), "kt" -> Vector(eqp("is_series", 1)), "rt" -> Vector(eqp("category", 0)), "chn" -> Vector(chnLo), "it1" -> Vector(eqp("id", 3)), "it2" -> Vector(eqp("id", 35)), "midx" -> Vector(mx9), "cn" -> Vector(cn5), "mi" -> Vector(miHi)),
    ),
    fam("q32", Seq("t", "kt", "ci", "n", "an", "pi", "it3", "mk", "k", "mc", "cn", "ct", "cc", "cct1"))(
      Map("k" -> Vector(kPop), "kt" -> Vector(eqp("id", 1)), "an" -> Vector(anLo), "pi" -> Vector(piHi), "it3" -> Vector(eqp("id", 2)), "cn" -> Vector(cn0), "ct" -> Vector(eqp("id", 1)), "cct1" -> Vector(eqp("id", 1))),
      Map("k" -> Vector(kMid), "kt" -> Vector(eqp("id", 2)), "an" -> Vector(anLo), "pi" -> Vector(piLo), "it3" -> Vector(eqp("id", 4)), "cn" -> Vector(cnLo), "ct" -> Vector(eqp("id", 2)), "cct1" -> Vector(eqp("id", 2))),
      Map("k" -> Vector(kLo), "kt" -> Vector(eqp("id", 3)), "an" -> Vector(anLo), "pi" -> Vector(piHi), "it3" -> Vector(eqp("domain", 1)), "cn" -> Vector(cn5), "ct" -> Vector(eqp("id", 1)), "cct1" -> Vector(eqp("id", 1)), "n" -> Vector(nM)),
    ),
    // ---- size 17 (3 queries) ----
    fam("q33", Seq("t", "kt", "ci", "n", "rt", "chn", "an", "mk", "k", "mi", "it1", "midx", "it2", "mc", "cn", "ct", "cc"))(
      Map("k" -> Vector(kPop), "kt" -> Vector(eqp("id", 1)), "rt" -> Vector(eqp("id", 1)), "chn" -> Vector(chnLo), "an" -> Vector(anLo), "it1" -> Vector(eqp("id", 1)), "it2" -> Vector(eqp("id", 38)), "midx" -> Vector(mxHi), "cn" -> Vector(cn0), "ct" -> Vector(eqp("id", 1))),
      Map("k" -> Vector(kMid), "kt" -> Vector(eqp("id", 2)), "rt" -> Vector(eqp("id", 2)), "chn" -> Vector(chn50), "an" -> Vector(anLo), "it1" -> Vector(eqp("id", 2)), "it2" -> Vector(eqp("id", 36)), "midx" -> Vector(mxGe6), "cn" -> Vector(cnLo), "ct" -> Vector(eqp("id", 2)), "n" -> Vector(nM)),
      Map("k" -> Vector(kLo), "kt" -> Vector(eqp("is_series", 1)), "rt" -> Vector(eqp("category", 0)), "chn" -> Vector(chnLo), "an" -> Vector(anLo), "it1" -> Vector(eqp("id", 4)), "it2" -> Vector(eqp("id", 35)), "midx" -> Vector(mx9), "cn" -> Vector(cn5), "ct" -> Vector(eqp("id", 1)), "mi" -> Vector(miHi)),
    ),
  ).flatten

  /** Query-count histogram by number of tables — the reproduction of the
    * paper's Table III (must equal it exactly).
    */
  lazy val sizeHistogram: Map[Int, Int] =
    all.groupBy(_.size).view.mapValues(_.size).toMap

  /** The paper's Table III, for diffing. */
  val paperTableIII: Map[Int, Int] =
    Map(4 -> 3, 5 -> 20, 6 -> 2, 7 -> 16, 8 -> 21, 9 -> 14,
        10 -> 7, 11 -> 10, 12 -> 11, 14 -> 6, 17 -> 3)

  def byName(name: String): QuerySpec =
    all.find(_.name == name).getOrElse(throw new NoSuchElementException(name))
}
