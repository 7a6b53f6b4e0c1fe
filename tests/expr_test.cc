#include <gtest/gtest.h>

#include <limits>

#include "datacube/expr/expr.h"
#include "datacube/expr/predicate.h"
#include "datacube/expr/scalar_function.h"
#include "datacube/workload/weather.h"

namespace datacube {
namespace {

Table TestTable() {
  TableBuilder b({Field{"i", DataType::kInt64},
                  Field{"f", DataType::kFloat64},
                  Field{"s", DataType::kString},
                  Field{"d", DataType::kDate},
                  Field{"flag", DataType::kBool}});
  b.Row({Value::Int64(10), Value::Float64(2.5), Value::String("chevy"),
         Value::FromDate(DateFromCivil(1996, 6, 1)), Value::Bool(true)});
  b.Row({Value::Int64(-3), Value::Null(), Value::String("Ford"),
         Value::FromDate(DateFromCivil(1995, 12, 31)), Value::Bool(false)});
  b.Row({Value::Null(), Value::Float64(4.0), Value::Null(),
         Value::FromDate(DateFromCivil(1996, 1, 1)), Value::Null()});
  return std::move(b).Build().value();
}

Value Eval(ExprPtr e, const Table& t, size_t row) {
  EXPECT_TRUE(e->Bind(t.schema()).ok());
  Result<Value> r = e->Evaluate(t, row);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? *r : Value::Null();
}

TEST(ExprTest, LiteralAndColumn) {
  Table t = TestTable();
  EXPECT_EQ(Eval(Expr::Lit(Value::Int64(7)), t, 0), Value::Int64(7));
  EXPECT_EQ(Eval(Expr::Column("i"), t, 0), Value::Int64(10));
  // Column lookup is case-insensitive.
  EXPECT_EQ(Eval(Expr::Column("I"), t, 1), Value::Int64(-3));
  ExprPtr bad = Expr::Column("nope");
  EXPECT_FALSE(bad->Bind(t.schema()).ok());
}

TEST(ExprTest, ArithmeticTyping) {
  Table t = TestTable();
  ExprPtr ii = Expr::Binary(BinaryOp::kAdd, Expr::Column("i"),
                            Expr::Lit(Value::Int64(1)));
  EXPECT_EQ(Eval(ii, t, 0), Value::Int64(11));
  EXPECT_EQ(ii->output_type(), DataType::kInt64);

  ExprPtr mixed = Expr::Binary(BinaryOp::kMul, Expr::Column("i"),
                               Expr::Column("f"));
  EXPECT_EQ(Eval(mixed, t, 0), Value::Float64(25.0));
  EXPECT_EQ(mixed->output_type(), DataType::kFloat64);

  // Division always yields float64 (percent-of-total style expressions).
  ExprPtr div = Expr::Binary(BinaryOp::kDiv, Expr::Column("i"),
                             Expr::Lit(Value::Int64(4)));
  EXPECT_EQ(Eval(div, t, 0), Value::Float64(2.5));

  ExprPtr mod = Expr::Binary(BinaryOp::kMod, Expr::Column("i"),
                             Expr::Lit(Value::Int64(3)));
  EXPECT_EQ(Eval(mod, t, 0), Value::Int64(1));
}

TEST(ExprTest, DivisionAndModByZeroYieldNull) {
  Table t = TestTable();
  ExprPtr div = Expr::Binary(BinaryOp::kDiv, Expr::Column("i"),
                             Expr::Lit(Value::Int64(0)));
  EXPECT_TRUE(Eval(div, t, 0).is_null());
  ExprPtr mod = Expr::Binary(BinaryOp::kMod, Expr::Column("i"),
                             Expr::Lit(Value::Int64(0)));
  EXPECT_TRUE(Eval(mod, t, 0).is_null());
}

// INT64 arithmetic at the extremes: an exact result that does not fit is
// an OutOfRange "integer overflow", never a wrapped value or a trap, and
// x % -1 is 0 even for INT64_MIN (whose hardware remainder traps).
TEST(ExprTest, IntegerOverflowIsAnErrorNotAWrap) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  TableBuilder b(
      {Field{"lo", DataType::kInt64}, Field{"hi", DataType::kInt64}});
  b.Row({Value::Int64(kMin), Value::Int64(kMax)});
  Table t = std::move(b).Build().value();
  auto lit = [](int64_t v) { return Expr::Lit(Value::Int64(v)); };
  auto overflows = [&](ExprPtr e) {
    EXPECT_TRUE(e->Bind(t.schema()).ok());
    Result<Value> r = e->Evaluate(t, 0);
    EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange) << e->ToString();
    EXPECT_NE(r.status().message().find("integer overflow"),
              std::string::npos)
        << r.status().ToString();
  };
  overflows(Expr::Unary(UnaryOp::kNeg, Expr::Column("lo")));
  overflows(Expr::Binary(BinaryOp::kAdd, Expr::Column("hi"), lit(1)));
  overflows(Expr::Binary(BinaryOp::kAdd, Expr::Column("lo"), lit(-1)));
  overflows(Expr::Binary(BinaryOp::kSub, Expr::Column("lo"), lit(1)));
  overflows(Expr::Binary(BinaryOp::kSub, Expr::Column("hi"), lit(-1)));
  overflows(Expr::Binary(BinaryOp::kMul, Expr::Column("lo"), lit(-1)));
  overflows(Expr::Binary(BinaryOp::kMul, Expr::Column("hi"), lit(2)));
  overflows(Expr::Call("abs", {Expr::Column("lo")}));

  // The largest results that still fit are exact.
  EXPECT_EQ(Eval(Expr::Call("abs", {Expr::Binary(BinaryOp::kAdd,
                                                 Expr::Column("lo"), lit(1))}),
                 t, 0),
            Value::Int64(kMax));
  EXPECT_EQ(Eval(Expr::Call("abs", {Expr::Column("hi")}), t, 0),
            Value::Int64(kMax));
  EXPECT_EQ(Eval(Expr::Unary(UnaryOp::kNeg, Expr::Column("hi")), t, 0),
            Value::Int64(kMin + 1));
  EXPECT_EQ(Eval(Expr::Binary(BinaryOp::kAdd, Expr::Column("lo"),
                              Expr::Column("hi")),
                 t, 0),
            Value::Int64(-1));
  EXPECT_EQ(Eval(Expr::Binary(BinaryOp::kSub, Expr::Column("hi"), lit(kMax)),
                 t, 0),
            Value::Int64(0));
  EXPECT_EQ(Eval(Expr::Binary(BinaryOp::kMul, Expr::Column("hi"), lit(-1)),
                 t, 0),
            Value::Int64(kMin + 1));
  EXPECT_EQ(Eval(Expr::Binary(BinaryOp::kMod, Expr::Column("lo"), lit(-1)),
                 t, 0),
            Value::Int64(0));
  EXPECT_EQ(Eval(Expr::Binary(BinaryOp::kMod, Expr::Column("hi"), lit(-1)),
                 t, 0),
            Value::Int64(0));
  EXPECT_EQ(Eval(Expr::Binary(BinaryOp::kMod, Expr::Column("lo"), lit(kMax)),
                 t, 0),
            Value::Int64(-1));
}

TEST(ExprTest, NullPropagatesThroughArithmetic) {
  Table t = TestTable();
  ExprPtr e = Expr::Binary(BinaryOp::kAdd, Expr::Column("i"),
                           Expr::Column("f"));
  EXPECT_TRUE(Eval(e, t, 1).is_null());  // f is NULL in row 1
}

TEST(ExprTest, ComparisonsAndTypeErrors) {
  Table t = TestTable();
  EXPECT_EQ(Eval(Expr::Binary(BinaryOp::kLt, Expr::Column("i"),
                              Expr::Column("f")),
                 t, 0),
            Value::Bool(false));  // 10 < 2.5
  EXPECT_EQ(Eval(Expr::Binary(BinaryOp::kEq, Expr::Column("s"),
                              Expr::Lit(Value::String("chevy"))),
                 t, 0),
            Value::Bool(true));
  ExprPtr bad = Expr::Binary(BinaryOp::kLt, Expr::Column("s"),
                             Expr::Column("i"));
  EXPECT_FALSE(bad->Bind(t.schema()).ok());
}

TEST(ExprTest, ThreeValuedLogic) {
  Table t = TestTable();
  ExprPtr null_flag = Expr::Column("flag");  // NULL in row 2
  ExprPtr true_lit = Expr::Lit(Value::Bool(true));
  ExprPtr false_lit = Expr::Lit(Value::Bool(false));
  // NULL AND FALSE = FALSE; NULL AND TRUE = NULL.
  EXPECT_EQ(Eval(Expr::Binary(BinaryOp::kAnd, null_flag, false_lit), t, 2),
            Value::Bool(false));
  EXPECT_TRUE(
      Eval(Expr::Binary(BinaryOp::kAnd, null_flag, true_lit), t, 2).is_null());
  // NULL OR TRUE = TRUE; NULL OR FALSE = NULL.
  EXPECT_EQ(Eval(Expr::Binary(BinaryOp::kOr, null_flag, true_lit), t, 2),
            Value::Bool(true));
  EXPECT_TRUE(
      Eval(Expr::Binary(BinaryOp::kOr, null_flag, false_lit), t, 2).is_null());
}

TEST(ExprTest, UnaryOperators) {
  Table t = TestTable();
  EXPECT_EQ(Eval(Expr::Unary(UnaryOp::kNeg, Expr::Column("i")), t, 0),
            Value::Int64(-10));
  EXPECT_EQ(Eval(Expr::Unary(UnaryOp::kNot, Expr::Column("flag")), t, 0),
            Value::Bool(false));
  EXPECT_EQ(Eval(Expr::Unary(UnaryOp::kIsNull, Expr::Column("f")), t, 1),
            Value::Bool(true));
  EXPECT_EQ(Eval(Expr::Unary(UnaryOp::kIsNotNull, Expr::Column("f")), t, 1),
            Value::Bool(false));
}

TEST(ExprTest, DatePartFunctions) {
  Table t = TestTable();
  EXPECT_EQ(Eval(Expr::Call("year", {Expr::Column("d")}), t, 0),
            Value::Int64(1996));
  EXPECT_EQ(Eval(Expr::Call("month", {Expr::Column("d")}), t, 0),
            Value::Int64(6));
  EXPECT_EQ(Eval(Expr::Call("quarter", {Expr::Column("d")}), t, 1),
            Value::Int64(4));
  EXPECT_EQ(Eval(Expr::Call("isweekend", {Expr::Column("d")}), t, 0),
            Value::Bool(true));
}

TEST(ExprTest, CallArityAndUnknownFunction) {
  Table t = TestTable();
  ExprPtr wrong_arity = Expr::Call("year", {});
  EXPECT_FALSE(wrong_arity->Bind(t.schema()).ok());
  ExprPtr unknown = Expr::Call("no_such_fn", {Expr::Column("i")});
  EXPECT_FALSE(unknown->Bind(t.schema()).ok());
}

TEST(ExprTest, NationAndContinent) {
  // The paper's Section 2 histogram functions over (lat, lon).
  TableBuilder b({Field{"lat", DataType::kFloat64},
                  Field{"lon", DataType::kFloat64}});
  b.Row({Value::Float64(37.97), Value::Float64(-122.75)});  // San Francisco
  b.Row({Value::Float64(48.8), Value::Float64(2.3)});       // Paris
  b.Row({Value::Float64(0.0), Value::Float64(-160.0)});     // open ocean
  Table t = std::move(b).Build().value();
  ExprPtr nation =
      Expr::Call("nation", {Expr::Column("lat"), Expr::Column("lon")});
  EXPECT_EQ(Eval(nation, t, 0), Value::String("USA"));
  EXPECT_EQ(Eval(nation, t, 1), Value::String("France"));
  EXPECT_TRUE(Eval(nation, t, 2).is_null());

  ExprPtr continent = Expr::Call(
      "continent",
      {Expr::Call("nation", {Expr::Column("lat"), Expr::Column("lon")})});
  EXPECT_EQ(Eval(continent, t, 0), Value::String("North America"));
  EXPECT_EQ(Eval(continent, t, 1), Value::String("Europe"));
  EXPECT_TRUE(Eval(continent, t, 2).is_null());
}

TEST(ExprTest, BucketHistogram) {
  Table t = TestTable();
  ExprPtr e = Expr::Call(
      "bucket", {Expr::Column("f"), Expr::Lit(Value::Float64(2.0))});
  EXPECT_EQ(Eval(e, t, 0), Value::Float64(2.0));  // 2.5 -> [2, 4)
  EXPECT_EQ(Eval(e, t, 2), Value::Float64(4.0));
}

TEST(ExprTest, StringFunctions) {
  Table t = TestTable();
  EXPECT_EQ(Eval(Expr::Call("upper", {Expr::Column("s")}), t, 0),
            Value::String("CHEVY"));
  EXPECT_EQ(Eval(Expr::Call("lower", {Expr::Column("s")}), t, 1),
            Value::String("ford"));
  EXPECT_EQ(Eval(Expr::Call("length", {Expr::Column("s")}), t, 0),
            Value::Int64(5));
  EXPECT_EQ(
      Eval(Expr::Call("substr",
                      {Expr::Column("s"), Expr::Lit(Value::Int64(2)),
                       Expr::Lit(Value::Int64(3))}),
           t, 0),
      Value::String("hev"));
  EXPECT_EQ(Eval(Expr::Call("concat", {Expr::Column("s"), Expr::Column("i")}),
                 t, 0),
            Value::String("chevy10"));
}

TEST(ExprTest, CoalesceSeesNulls) {
  Table t = TestTable();
  ExprPtr e = Expr::Call("coalesce",
                         {Expr::Column("f"), Expr::Lit(Value::Float64(-1.0))});
  EXPECT_EQ(Eval(e, t, 1), Value::Float64(-1.0));
  EXPECT_EQ(Eval(e, t, 0), Value::Float64(2.5));
}

TEST(ExprTest, AllPropagatesThroughGroupingFunctions) {
  // A scalar call over an ALL input yields ALL: grouping functions map the
  // super-aggregate marker through (Section 3.3 semantics).
  Table t(Schema({Field{"d", DataType::kDate, true, /*allow_all=*/true}}));
  ASSERT_TRUE(t.AppendRow({Value::All()}).ok());
  ExprPtr e = Expr::Call("year", {Expr::Column("d")});
  ASSERT_TRUE(e->Bind(t.schema()).ok());
  EXPECT_TRUE(e->Evaluate(t, 0)->is_all());
}

TEST(ExprTest, ToStringReadable) {
  ExprPtr e = Expr::Binary(
      BinaryOp::kAdd, Expr::Column("a"),
      Expr::Call("year", {Expr::Column("d")}));
  EXPECT_EQ(e->ToString(), "(a + year(d))");
  EXPECT_EQ(Expr::Lit(Value::String("x"))->ToString(), "'x'");
}

TEST(ExprTest, EvaluateBeforeBindFails) {
  Table t = TestTable();
  ExprPtr e = Expr::Column("i");
  EXPECT_FALSE(e->Evaluate(t, 0).ok());
}

TEST(ScalarRegistryTest, RegisterAndDuplicate) {
  ScalarFunctionRegistry& reg = ScalarFunctionRegistry::Global();
  EXPECT_TRUE(reg.Find("year").ok());
  EXPECT_TRUE(reg.Find("YEAR").ok());
  EXPECT_FALSE(reg.Find("nonexistent").ok());

  ScalarFunction fn;
  fn.name = "test_double_it";
  fn.arity = 1;
  fn.result_type = [](const std::vector<DataType>&) -> Result<DataType> {
    return DataType::kInt64;
  };
  fn.eval = [](const std::vector<Value>& args) -> Result<Value> {
    return Value::Int64(args[0].int64_value() * 2);
  };
  EXPECT_TRUE(reg.Register(fn).ok());
  EXPECT_FALSE(reg.Register(fn).ok());  // duplicate

  Table t = TestTable();
  EXPECT_EQ(Eval(Expr::Call("test_double_it", {Expr::Column("i")}), t, 0),
            Value::Int64(20));
}

TEST(WeatherWorkloadTest, NationResolvesForAllRows) {
  Result<Table> w =
      GenerateWeather({.num_rows = 200, .num_days = 7, .seed = 1});
  ASSERT_TRUE(w.ok());
  ExprPtr nation = Expr::Call(
      "nation", {Expr::Column("Latitude"), Expr::Column("Longitude")});
  ASSERT_TRUE(nation->Bind(w->schema()).ok());
  for (size_t r = 0; r < w->num_rows(); ++r) {
    Result<Value> v = nation->Evaluate(*w, r);
    ASSERT_TRUE(v.ok());
    EXPECT_FALSE(v->is_null()) << "station outside every nation box, row " << r;
  }
}

// ------------------------------------------------------------ SelectRows

// Rows 0-5 hold the comparison edge cases; row 5 is ALL in every column,
// as a super-aggregate row of a CUBE result is.
Table EdgeTable() {
  const int64_t two53 = int64_t{1} << 53;
  TableBuilder b({Field{"i", DataType::kInt64}, Field{"f", DataType::kFloat64},
                  Field{"s", DataType::kString}, Field{"d", DataType::kDate},
                  Field{"b", DataType::kBool}});
  b.Row({Value::Int64(two53 + 1),
         Value::Float64(std::numeric_limits<double>::quiet_NaN()),
         Value::String("a"), Value::FromDate(Date{10}), Value::Bool(true)});
  b.Row({Value::Int64(two53), Value::Float64(-0.0), Value::String(""),
         Value::FromDate(Date{-1}), Value::Bool(false)});
  b.Row({Value::Int64(-5), Value::Float64(0.0), Value::String("b"),
         Value::FromDate(Date{0}), Value::Null()});
  b.Row({Value::Null(), Value::Float64(std::numeric_limits<double>::infinity()),
         Value::Null(), Value::Null(), Value::Bool(true)});
  b.Row({Value::Int64(std::numeric_limits<int64_t>::min()), Value::Null(),
         Value::String("a"), Value::FromDate(Date{10}), Value::Bool(false)});
  b.Row({Value::All(), Value::All(), Value::All(), Value::All(), Value::All()});
  return std::move(b).Build().value();
}

// Binds `e` over `t` and runs SelectRows, checking its rows against the
// interpreter's TRUE rows before returning them.
Selection Select(const ExprPtr& e, const Table& t) {
  EXPECT_TRUE(e->Bind(t.schema()).ok()) << e->ToString();
  Result<Selection> sel = SelectRows(*e, t);
  EXPECT_TRUE(sel.ok()) << sel.status().ToString();
  if (!sel.ok()) return {};
  std::vector<size_t> interpreted;
  for (size_t r = 0; r < t.num_rows(); ++r) {
    Result<Value> v = e->Evaluate(t, r);
    if (v.ok() && v->kind() == Value::Kind::kBool && v->bool_value()) {
      interpreted.push_back(r);
    }
  }
  EXPECT_EQ(sel->rows, interpreted) << e->ToString();
  return *sel;
}

std::vector<size_t> Rows(const ExprPtr& e, const Table& t) {
  Selection sel = Select(e, t);
  EXPECT_EQ(sel.path, PredicatePath::kVectorized) << e->ToString();
  return sel.rows;
}

ExprPtr Cmp(BinaryOp op, const char* column, Value literal) {
  return Expr::Binary(op, Expr::Column(column), Expr::Lit(std::move(literal)));
}

TEST(PredicateTest, ComparisonsFollowValueCompareNotIeee) {
  Table t = EdgeTable();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  using V = std::vector<size_t>;
  // NaN sorts above every number, +inf included, and equals NaN.
  EXPECT_EQ(Rows(Cmp(BinaryOp::kGt, "f", Value::Float64(1e300)), t), V({0, 3}));
  EXPECT_EQ(Rows(Cmp(BinaryOp::kEq, "f", Value::Float64(nan)), t), V({0}));
  EXPECT_EQ(Rows(Cmp(BinaryOp::kLt, "f", Value::Float64(nan)), t),
            V({1, 2, 3}));
  // -0.0 equals 0.0, from either side.
  EXPECT_EQ(Rows(Cmp(BinaryOp::kEq, "f", Value::Float64(0.0)), t), V({1, 2}));
  EXPECT_EQ(Rows(Cmp(BinaryOp::kGe, "f", Value::Float64(-0.0)), t),
            V({0, 1, 2, 3}));
  // INT64 against FLOAT64 compares exactly: 2^53 + 1 is not 2^53.
  const double two53 = 9007199254740992.0;
  EXPECT_EQ(Rows(Cmp(BinaryOp::kEq, "i", Value::Float64(two53)), t), V({1}));
  EXPECT_EQ(Rows(Cmp(BinaryOp::kGt, "i", Value::Float64(two53)), t), V({0}));
  EXPECT_EQ(Rows(Cmp(BinaryOp::kLt, "i", Value::Float64(nan)), t),
            V({0, 1, 2, 4}));
  EXPECT_EQ(Rows(Cmp(BinaryOp::kGt, "f", Value::Int64(int64_t{1} << 53)), t),
            V({0, 3}));
  // Literal on the left mirrors the operator; `i > -5` parses as unary
  // minus over a literal and still runs on the kernel.
  EXPECT_EQ(Rows(Expr::Binary(BinaryOp::kLt, Expr::Lit(Value::Int64(0)),
                              Expr::Column("i")),
                 t),
            V({0, 1}));
  EXPECT_EQ(Rows(Expr::Binary(BinaryOp::kGe, Expr::Column("i"),
                              Expr::Unary(UnaryOp::kNeg,
                                          Expr::Lit(Value::Int64(5)))),
                 t),
            V({0, 1, 2}));
  EXPECT_EQ(Rows(Cmp(BinaryOp::kLe, "s", Value::String("a")), t), V({0, 1, 4}));
  EXPECT_EQ(Rows(Cmp(BinaryOp::kNe, "s", Value::String("a")), t), V({1, 2}));
  EXPECT_EQ(Rows(Cmp(BinaryOp::kGt, "d", Value::FromDate(Date{0})), t),
            V({0, 4}));
  EXPECT_EQ(Rows(Cmp(BinaryOp::kLt, "b", Value::Bool(true)), t), V({1, 4}));
  // A NULL literal makes every comparison unknown.
  EXPECT_EQ(Rows(Cmp(BinaryOp::kNe, "s", Value::Null()), t), V({}));
}

TEST(PredicateTest, NullTestsAndThreeValuedLogic) {
  Table t = EdgeTable();
  using V = std::vector<size_t>;
  // IS NULL is false on ALL; IS NOT NULL is true there.
  EXPECT_EQ(Rows(Expr::Unary(UnaryOp::kIsNull, Expr::Column("s")), t), V({3}));
  EXPECT_EQ(Rows(Expr::Unary(UnaryOp::kIsNotNull, Expr::Column("s")), t),
            V({0, 1, 2, 4, 5}));
  EXPECT_EQ(Rows(Expr::Column("b"), t), V({0, 3}));
  // unknown OR true is true; unknown AND false is false (so NOT of it is
  // true); NOT unknown stays unknown.
  ExprPtr unknown = Cmp(BinaryOp::kGt, "i", Value::Int64(0));  // NULL in row 3
  EXPECT_EQ(Rows(Expr::Binary(BinaryOp::kOr, unknown, Expr::Column("b")), t),
            V({0, 1, 3}));
  EXPECT_EQ(Rows(Expr::Unary(UnaryOp::kNot,
                             Expr::Binary(BinaryOp::kAnd, unknown,
                                          Cmp(BinaryOp::kEq, "b",
                                              Value::Bool(false)))),
                 t),
            V({0, 2, 3, 4}));
  EXPECT_EQ(Rows(Expr::Unary(UnaryOp::kNot, unknown), t), V({2, 4}));
  EXPECT_EQ(Rows(Expr::Lit(Value::Bool(true)), t), V({0, 1, 2, 3, 4, 5}));
  EXPECT_EQ(Rows(Expr::Lit(Value::Null()), t), V({}));
}

TEST(PredicateTest, OtherShapesRunTheInterpreter) {
  Table t = EdgeTable();
  for (ExprPtr e :
       {Expr::Binary(BinaryOp::kGt,
                     Expr::Binary(BinaryOp::kAdd, Expr::Column("i"),
                                  Expr::Lit(Value::Int64(0))),
                     Expr::Lit(Value::Int64(0))),
        Expr::Binary(BinaryOp::kEq, Expr::Column("i"), Expr::Column("i")),
        Expr::Binary(BinaryOp::kLike, Expr::Column("s"),
                     Expr::Lit(Value::String("a%"))),
        // One interpreted operand sends the whole predicate there.
        Expr::Binary(BinaryOp::kAnd, Expr::Column("b"),
                     Expr::Binary(BinaryOp::kEq, Expr::Column("i"),
                                  Expr::Column("i")))}) {
    EXPECT_EQ(Select(e, t).path, PredicatePath::kInterpreted) << e->ToString();
  }
  EXPECT_STREQ(PredicatePathName(PredicatePath::kVectorized), "vectorized");
  EXPECT_STREQ(PredicatePathName(PredicatePath::kInterpreted), "interpreted");
}

TEST(PredicateTest, RejectsNonBooleanAndUnboundPredicates) {
  Table t = EdgeTable();
  ExprPtr number = Expr::Column("i");
  ASSERT_TRUE(number->Bind(t.schema()).ok());
  Result<Selection> sel = SelectRows(*number, t);
  ASSERT_FALSE(sel.ok());
  EXPECT_EQ(sel.status().code(), StatusCode::kTypeError);
  ExprPtr unbound = Expr::Column("b");
  EXPECT_EQ(SelectRows(*unbound, t).status().code(), StatusCode::kInternal);
}

}  // namespace
}  // namespace datacube
