package repro.workload

import org.scalacheck.Prop.forAll
import org.scalacheck.Test.{check => scCheck, Parameters}
import org.scalatest.funsuite.AnyFunSuite

/** Pure IR tests: predicate semantics and SQL rendering. */
class QuerySpecSpec extends AnyFunSuite {

  /** Run a scalacheck property inside a scalatest test. */
  private def checkProp(p: org.scalacheck.Prop): Unit = {
    val res = scCheck(Parameters.default.withMinSuccessfulTests(200), p)
    assert(res.passed, res.status.toString)
  }

  test("EqPred eval/sql") {
    val p = EqPred("x", 5)
    assert(p.eval(5) && !p.eval(4))
    assert(p.sql("t.x") == "t.x = 5")
  }

  test("InPred eval/sql") {
    val p = InPred("x", Seq(1, 3, 5))
    assert(p.eval(3) && !p.eval(2))
    assert(p.sql("t.x") == "t.x IN (1, 3, 5)")
  }

  test("InPred rejects empty list") {
    intercept[IllegalArgumentException](InPred("x", Seq.empty))
  }

  test("RangePred eval inclusive on both ends") {
    val p = RangePred("x", 2, 4)
    assert(p.eval(2) && p.eval(4) && !p.eval(1) && !p.eval(5))
    assert(p.sql("t.x") == "t.x BETWEEN 2 AND 4")
  }

  test("pred eval properties (scalacheck)") {
    checkProp(forAll { (v: Long, a: Long, b: Long) =>
      val lo = math.min(a, b); val hi = math.max(a, b)
      RangePred("c", lo, hi).eval(v) == (v >= lo && v <= hi) &&
        EqPred("c", a).eval(v) == (v == a)
    })
  }

  test("JoinClass requires two members") {
    intercept[IllegalArgumentException](JoinClass(Vector((0, "x"))))
  }

  private val q = QuerySpec(
    "toy",
    Vector(Relation("a", "ta"), Relation("b", "tb")),
    Vector(JoinClass(Vector((0, "k"), (1, "k")))),
    Map(0 -> Vector(EqPred("v", 7))),
  )

  test("countSql renders joins and filters") {
    val sql = q.countSql()
    assert(sql.contains("SELECT COUNT(*) AS cnt"))
    assert(sql.contains("ta AS a"))
    assert(sql.contains("tb AS b"))
    assert(sql.contains("a.k = b.k"))
    assert(sql.contains("a.v = 7"))
  }

  test("countSql with castBigint wraps every column reference") {
    val sql = q.countSql(castBigint = true)
    assert(sql.contains("CAST(a.k AS BIGINT) = CAST(b.k AS BIGINT)"))
    assert(sql.contains("CAST(a.v AS BIGINT) = 7"))
  }

  test("multi-member class chains equalities") {
    val q3 = QuerySpec(
      "toy3",
      Vector(Relation("a", "ta"), Relation("b", "tb"), Relation("c", "tc")),
      Vector(JoinClass(Vector((0, "k"), (1, "k"), (2, "k")))),
      Map.empty,
    )
    val sql = q3.countSql()
    assert(sql.contains("a.k = b.k") && sql.contains("b.k = c.k"))
  }

  test("preds returns empty for unfiltered relations") {
    assert(q.preds(1).isEmpty && q.preds(0).size == 1)
  }
}
