//===- tests/poly/AffineExprTest.cpp --------------------------------------===//

#include "poly/AffineExpr.h"

#include <gtest/gtest.h>

using namespace lcdfg;
using poly::AffineExpr;

TEST(AffineExpr, Construction) {
  AffineExpr C(7);
  EXPECT_TRUE(C.isConstant());
  EXPECT_EQ(C.constant(), 7);

  AffineExpr X = AffineExpr::var("x");
  EXPECT_FALSE(X.isConstant());
  EXPECT_EQ(X.coeff("x"), 1);
  EXPECT_EQ(X.coeff("y"), 0);
  EXPECT_TRUE(X.references("x"));
  EXPECT_FALSE(X.references("y"));
}

TEST(AffineExpr, Arithmetic) {
  AffineExpr X = AffineExpr::var("x"), N = AffineExpr::var("N");
  AffineExpr E = X * 2 + N - AffineExpr(3);
  EXPECT_EQ(E.coeff("x"), 2);
  EXPECT_EQ(E.coeff("N"), 1);
  EXPECT_EQ(E.constant(), -3);
  EXPECT_EQ((E - E).toString(), "0");
  // Coefficients that cancel disappear entirely.
  AffineExpr Z = X - X;
  EXPECT_TRUE(Z.isConstant());
}

TEST(AffineExpr, Substitute) {
  AffineExpr X = AffineExpr::var("x"), N = AffineExpr::var("N");
  AffineExpr E = X * 3 + AffineExpr(1);
  AffineExpr S = E.substitute("x", N - AffineExpr(1));
  EXPECT_EQ(S.coeff("N"), 3);
  EXPECT_EQ(S.constant(), -2);
  // Substituting an absent variable is a no-op.
  EXPECT_EQ(E.substitute("q", N), E);
}

TEST(AffineExpr, Evaluate) {
  AffineExpr E = AffineExpr::var("x") * 2 + AffineExpr::var("N") +
                 AffineExpr(5);
  std::map<std::string, std::int64_t, std::less<>> Env{{"x", 3}, {"N", 16}};
  EXPECT_EQ(E.evaluate(Env), 27);
}

TEST(AffineExpr, ToPolynomial) {
  AffineExpr E = AffineExpr::var("N") * 2 + AffineExpr(3);
  EXPECT_EQ(E.toPolynomial().toString(), "2N+3");
  EXPECT_EQ(AffineExpr(0).toPolynomial().toString(), "0");
}

TEST(AffineExpr, SignForParamsGE1) {
  using SK = AffineExpr::SignKind;
  AffineExpr N = AffineExpr::var("N");
  EXPECT_EQ(AffineExpr(0).signForParamsGE1(), SK::Zero);
  EXPECT_EQ(AffineExpr(2).signForParamsGE1(), SK::NonNegative);
  EXPECT_EQ(AffineExpr(-2).signForParamsGE1(), SK::NonPositive);
  // N - 1 >= 0 for N >= 1.
  EXPECT_EQ((N - AffineExpr(1)).signForParamsGE1(), SK::NonNegative);
  // N - 2 is negative at N = 1, positive at N = 3.
  EXPECT_EQ((N - AffineExpr(2)).signForParamsGE1(), SK::Unknown);
  EXPECT_EQ((-N).signForParamsGE1(), SK::NonPositive);
  EXPECT_EQ((AffineExpr(1) - N).signForParamsGE1(), SK::NonPositive);
}

TEST(AffineExpr, ToString) {
  AffineExpr X = AffineExpr::var("x");
  EXPECT_EQ((X + AffineExpr(1)).toString(), "x+1");
  EXPECT_EQ((X * -1).toString(), "-x");
  EXPECT_EQ((X * 2 - AffineExpr(5)).toString(), "2x-5");
  EXPECT_EQ(AffineExpr(0).toString(), "0");
}

struct ParseCase {
  const char *Text;
  const char *Expected; // nullptr => parse failure expected
};

// Print the case as text: the default byte dump would put string-literal
// addresses, which change from run to run, into the discovered test names.
void PrintTo(const ParseCase &C, std::ostream *OS) {
  *OS << '"' << C.Text << "\" -> ";
  if (C.Expected)
    *OS << '"' << C.Expected << '"';
  else
    *OS << "no parse";
}

class AffineExprParse : public ::testing::TestWithParam<ParseCase> {};

TEST_P(AffineExprParse, RoundTrips) {
  const ParseCase &C = GetParam();
  auto E = AffineExpr::parse(C.Text);
  if (!C.Expected) {
    EXPECT_FALSE(E.has_value()) << C.Text;
    return;
  }
  ASSERT_TRUE(E.has_value()) << C.Text;
  EXPECT_EQ(E->toString(), C.Expected);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, AffineExprParse,
    ::testing::Values(ParseCase{"0", "0"}, ParseCase{"x", "x"},
                      ParseCase{"x+1", "x+1"}, ParseCase{"x - 2", "x-2"},
                      ParseCase{"N-1", "N-1"}, ParseCase{"2N+3", "2N+3"},
                      ParseCase{"2*N + 3", "2N+3"},
                      ParseCase{"-x", "-x"}, ParseCase{"x+y-1", "x+y-1"},
                      ParseCase{"X+1", "X+1"}, ParseCase{"  7 ", "7"},
                      ParseCase{"", nullptr}, ParseCase{"+", nullptr},
                      ParseCase{"x++1", nullptr}));
