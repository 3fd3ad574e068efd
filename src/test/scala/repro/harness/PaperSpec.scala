package repro.harness

import repro.{SparkSpec, TestData}
import repro.workload.JobLite

/** The experiment harness at unit-test scale: paper experiments pass their
  * gates, the spark-submit entrypoint finds each of them, and a real run
  * leaves nothing persisted behind.
  */
class PaperSpec extends SparkSpec {

  test("Table III experiment passes its gates") {
    assert(Paper.table3.run(spark, TestData.SF, TestData.SF).isEmpty)
  }

  test("skew demo passes its gates at test scale") {
    assert(Paper.skew.run(spark, TestData.SF, TestData.SF).isEmpty)
  }

  test("every registered experiment resolves by name") {
    assert(Paper.all.map(_.name).distinct.size == Paper.all.size)
    for (e <- Paper.all) assert(Paper.byName(e.name).contains(e), e.name)
    assert(Paper.byName("no-such-table").isEmpty)
  }

  test("bucket edges: lower bounds inclusive up to 2.0, 5.0 closes its bucket") {
    assert(Experiments.bucket(0.7999) == "0.1 - 0.8")
    assert(Experiments.bucket(0.8) == "0.8 - 1.2")
    assert(Experiments.bucket(1.2) == "1.2 - 2.0")
    assert(Experiments.bucket(2.0) == "2.0 - 5.0")
    assert(Experiments.bucket(5.0) == "2.0 - 5.0")
    assert(Experiments.bucket(5.0001) == "> 5.0")
    assert(Experiments.bucketCounts(Seq(0.8, 1.2, 2.0, 5.0, 5.0001)) ==
      Map("0.1 - 0.8" -> 0, "0.8 - 1.2" -> 1, "1.2 - 2.0" -> 1, "2.0 - 5.0" -> 2, "> 5.0" -> 1))
  }

  test("realRun re-optimizes q30a and unpersists its temporaries") {
    val (pg, perfect, reopt, steps) = Experiments.realRun(TestData.wb(spark), JobLite.byName("q30a"))
    assert(steps > 0, "q30a should re-optimize at test scale")
    assert(pg > 0 && perfect > 0 && reopt > 0)
    assert(spark.sparkContext.getPersistentRDDs.isEmpty)
  }
}
