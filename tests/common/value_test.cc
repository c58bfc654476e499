#include "common/value.h"

#include <gtest/gtest.h>

#include <unordered_set>

namespace hermes {
namespace {

TEST(ValueTest, DefaultIsNull) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_EQ(v.type(), Value::Type::kNull);
  EXPECT_EQ(v.ToString(), "null");
}

TEST(ValueTest, IntBasics) {
  Value v = Value::Int(42);
  EXPECT_TRUE(v.is_int());
  EXPECT_TRUE(v.is_numeric());
  EXPECT_EQ(v.as_int(), 42);
  EXPECT_EQ(v.as_number(), 42.0);
  EXPECT_EQ(v.ToString(), "42");
}

TEST(ValueTest, DoubleBasics) {
  Value v = Value::Double(2.5);
  EXPECT_TRUE(v.is_double());
  EXPECT_TRUE(v.is_numeric());
  EXPECT_EQ(v.as_double(), 2.5);
  EXPECT_EQ(v.ToString(), "2.5");
}

TEST(ValueTest, IntegralDoublePrintsWithDecimalPoint) {
  EXPECT_EQ(Value::Double(3.0).ToString(), "3.0");
}

TEST(ValueTest, BoolBasics) {
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
  EXPECT_EQ(Value::Bool(false).ToString(), "false");
}

TEST(ValueTest, StringEscaping) {
  Value v = Value::Str("it's");
  EXPECT_EQ(v.ToString(), "'it\\'s'");
}

TEST(ValueTest, ListToString) {
  Value v = Value::TupleOf({Value::Int(1), Value::Str("a")});
  EXPECT_EQ(v.ToString(), "[1, 'a']");
}

TEST(ValueTest, StructToString) {
  Value v = Value::Struct({{"x", Value::Int(1)}, {"y", Value::Int(2)}});
  EXPECT_EQ(v.ToString(), "{x: 1, y: 2}");
}

TEST(ValueTest, NumericCrossTypeEquality) {
  EXPECT_EQ(Value::Int(2), Value::Double(2.0));
  EXPECT_NE(Value::Int(2), Value::Double(2.5));
  EXPECT_EQ(Value::Int(2).Hash(), Value::Double(2.0).Hash());
}

TEST(ValueTest, CompareOrdersByTypeThenValue) {
  // null < bool < numeric < string < list < struct
  EXPECT_LT(Value::Null(), Value::Bool(false));
  EXPECT_LT(Value::Bool(true), Value::Int(0));
  EXPECT_LT(Value::Int(5), Value::Str(""));
  EXPECT_LT(Value::Str("zzz"), Value::List({}));
  EXPECT_LT(Value::List({Value::Int(9)}), Value::Struct({}));
}

TEST(ValueTest, ListComparesLexicographically) {
  Value a = Value::TupleOf({Value::Int(1), Value::Int(2)});
  Value b = Value::TupleOf({Value::Int(1), Value::Int(3)});
  Value c = Value::TupleOf({Value::Int(1)});
  EXPECT_LT(a, b);
  EXPECT_LT(c, a);  // shorter prefix first
  EXPECT_EQ(a, Value::TupleOf({Value::Int(1), Value::Int(2)}));
}

TEST(ValueTest, StructComparesFieldsInOrder) {
  Value a = Value::Struct({{"a", Value::Int(1)}});
  Value b = Value::Struct({{"a", Value::Int(2)}});
  Value c = Value::Struct({{"b", Value::Int(0)}});
  EXPECT_LT(a, b);
  EXPECT_LT(a, c);  // field name 'a' < 'b'
}

TEST(ValueTest, GetAttrFindsField) {
  Value v = Value::Struct({{"name", Value::Str("rupert")}});
  Result<Value> r = v.GetAttr("name");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, Value::Str("rupert"));
}

TEST(ValueTest, GetAttrMissingFieldIsNotFound) {
  Value v = Value::Struct({{"name", Value::Str("x")}});
  EXPECT_TRUE(v.GetAttr("role").status().IsNotFound());
}

TEST(ValueTest, GetAttrOnNonStructIsTypeError) {
  EXPECT_EQ(Value::Int(1).GetAttr("x").status().code(),
            StatusCode::kTypeError);
}

TEST(ValueTest, GetIndexIsOneBased) {
  Value v = Value::TupleOf({Value::Str("a"), Value::Str("b")});
  EXPECT_EQ(*v.GetIndex(1), Value::Str("a"));
  EXPECT_EQ(*v.GetIndex(2), Value::Str("b"));
  EXPECT_FALSE(v.GetIndex(0).ok());
  EXPECT_TRUE(v.GetIndex(3).status().IsNotFound());
}

TEST(ValueTest, GetIndexOnStructUsesFieldOrder) {
  Value v = Value::Struct({{"x", Value::Int(7)}, {"y", Value::Int(8)}});
  EXPECT_EQ(*v.GetIndex(2), Value::Int(8));
}

TEST(ValueTest, GetIndexOneOnScalarReturnsSelf) {
  EXPECT_EQ(*Value::Int(5).GetIndex(1), Value::Int(5));
  EXPECT_EQ(Value::Int(5).GetIndex(2).status().code(),
            StatusCode::kTypeError);
}

TEST(ValueTest, GetPathMixesNamesAndIndexes) {
  Value row = Value::Struct(
      {{"who", Value::Struct({{"name", Value::Str("stewart")}})},
       {"frames", Value::TupleOf({Value::Int(4), Value::Int(47)})}});
  EXPECT_EQ(*row.GetPath({"who", "name"}), Value::Str("stewart"));
  EXPECT_EQ(*row.GetPath({"frames", "2"}), Value::Int(47));
  EXPECT_EQ(*row.GetPath({}), row);
  EXPECT_FALSE(row.GetPath({"who", "role"}).ok());
}

TEST(ValueTest, GetPathIndexPastSizeTIsNotFound) {
  Value row = Value::Struct(
      {{"frames", Value::TupleOf({Value::Int(4), Value::Int(47)})}});
  Result<const Value*> huge =
      row.GetPathPtr({"frames", "99999999999999999999"});
  EXPECT_EQ(huge.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(row.GetPath({"frames", "3"}).status().code(),
            StatusCode::kNotFound);
}

TEST(ValueTest, HashIsConsistentWithEquality) {
  std::unordered_set<Value, ValueHash> set;
  set.insert(Value::Str("abc"));
  set.insert(Value::Int(3));
  set.insert(Value::TupleOf({Value::Int(1), Value::Str("x")}));
  EXPECT_EQ(set.count(Value::Str("abc")), 1u);
  EXPECT_EQ(set.count(Value::Double(3.0)), 1u);  // 3 == 3.0
  EXPECT_EQ(set.count(Value::TupleOf({Value::Int(1), Value::Str("x")})), 1u);
  EXPECT_EQ(set.count(Value::Str("abd")), 0u);
}

TEST(ValueTest, ApproxByteSizeGrowsWithContent) {
  EXPECT_GE(Value::Str("hello world").ApproxByteSize(),
            Value::Str("hi").ApproxByteSize());
  Value big = Value::List(ValueList(100, Value::Int(1)));
  EXPECT_GT(big.ApproxByteSize(), 100u * 8u);
}

TEST(ValueTest, ValueListToStringJoins) {
  EXPECT_EQ(ValueListToString({Value::Int(1), Value::Int(2)}), "1, 2");
  EXPECT_EQ(ValueListToString({}), "");
}

// Property sweep: Compare is antisymmetric and consistent with hashing for
// a grid of representative values.
class ValueCompareProperty : public ::testing::TestWithParam<int> {};

std::vector<Value> RepresentativeValues() {
  return {
      Value::Null(),
      Value::Bool(false),
      Value::Bool(true),
      Value::Int(-3),
      Value::Int(0),
      Value::Int(42),
      Value::Double(-3.0),
      Value::Double(41.5),
      Value::Str(""),
      Value::Str("abc"),
      Value::List({}),
      Value::TupleOf({Value::Int(1)}),
      Value::TupleOf({Value::Int(1), Value::Int(2)}),
      Value::Struct({}),
      Value::Struct({{"a", Value::Int(1)}}),
  };
}

TEST_P(ValueCompareProperty, AntisymmetricAndHashConsistent) {
  std::vector<Value> values = RepresentativeValues();
  const Value& a = values[GetParam()];
  for (const Value& b : values) {
    int ab = a.Compare(b);
    int ba = b.Compare(a);
    EXPECT_EQ(ab, -ba) << a << " vs " << b;
    if (ab == 0) {
      EXPECT_EQ(a.Hash(), b.Hash()) << a << " vs " << b;
      EXPECT_EQ(a, b);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllValues, ValueCompareProperty,
                         ::testing::Range(0, 15));

}  // namespace
}  // namespace hermes
