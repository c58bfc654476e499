#include "relational/database.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

namespace hermes::relational {
namespace {

TEST(DatabaseTest, CreateGetDrop) {
  Database db;
  Result<Table*> t = db.CreateTable("t", Schema({{"x", ColumnType::kInt}}));
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(db.HasTable("t"));
  EXPECT_TRUE(db.GetTable("t").ok());
  EXPECT_EQ(db.CreateTable("t", Schema(std::vector<Column>{})).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_TRUE(db.DropTable("t").ok());
  EXPECT_FALSE(db.HasTable("t"));
  EXPECT_TRUE(db.DropTable("t").IsNotFound());
}

TEST(DatabaseTest, LoadCsvWithTypes) {
  Database db;
  Result<Table*> t = db.LoadCsv("people", R"(name:string,age:int,score:double
'ann smith',34,1.5
bob,40,2
)");
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ((*t)->num_rows(), 2u);
  Value row0 = (*t)->RowAsStruct(0);
  EXPECT_EQ(*row0.GetAttr("name"), Value::Str("ann smith"));
  EXPECT_EQ(*row0.GetAttr("age"), Value::Int(34));
  EXPECT_EQ(*row0.GetAttr("score"), Value::Double(1.5));
  // Unquoted string and int-typed double field.
  Value row1 = (*t)->RowAsStruct(1);
  EXPECT_EQ(*row1.GetAttr("name"), Value::Str("bob"));
  EXPECT_EQ(*row1.GetAttr("score"), Value::Double(2.0));
}

TEST(DatabaseTest, LoadCsvDefaultTypeIsString) {
  Database db;
  Result<Table*> t = db.LoadCsv("t", "a,b\nx,y\n");
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ((*t)->schema().column(0).type, ColumnType::kString);
}

TEST(DatabaseTest, LoadCsvSkipsBlankAndCommentLines) {
  Database db;
  Result<Table*> t = db.LoadCsv("t", "a:int\n\n# comment\n1\n\n2\n");
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ((*t)->num_rows(), 2u);
}

TEST(DatabaseTest, LoadCsvBadArityFails) {
  Database db;
  EXPECT_FALSE(db.LoadCsv("t", "a:int,b:int\n1\n").ok());
}

TEST(DatabaseTest, LoadCsvBadTypeFails) {
  Database db;
  EXPECT_FALSE(db.LoadCsv("t", "a:int\nnot_a_number\n").ok());
  Database db2;
  EXPECT_FALSE(db2.LoadCsv("t", "a:frob\n1\n").ok());
}

TEST(DatabaseTest, LoadCsvOutOfRangeNumberIsATypeError) {
  Database db;
  Result<Table*> t = db.LoadCsv("t", "n:int\n99999999999999999999\n");
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kTypeError) << t.status();
  EXPECT_NE(t.status().message().find("99999999999999999999"),
            std::string::npos);
  Database db2;
  Result<Table*> d = db2.LoadCsv("t", "x:double\n1" + std::string(400, '0') +
                                          "\n");
  ASSERT_FALSE(d.ok());
  EXPECT_EQ(d.status().code(), StatusCode::kTypeError) << d.status();
}

TEST(DatabaseTest, LoadCsvFractionInIntColumnIsATypeError) {
  Database db;
  Result<Table*> t = db.LoadCsv("t", "n:int\n1.5\n");
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), StatusCode::kTypeError) << t.status();
  // The extremes of the column type still load exactly.
  Database db2;
  Result<Table*> ok = db2.LoadCsv(
      "t", "n:int\n9223372036854775807\n-9223372036854775808\n");
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ((*ok)->row(0)[0], Value::Int(INT64_MAX));
  EXPECT_EQ((*ok)->row(1)[0], Value::Int(INT64_MIN));
}

TEST(DatabaseTest, LoadCsvBoolColumn) {
  Database db;
  Result<Table*> t = db.LoadCsv("t", "flag:bool\ntrue\n0\n");
  ASSERT_TRUE(t.ok()) << t.status();
  EXPECT_EQ((*t)->row(0)[0], Value::Bool(true));
  EXPECT_EQ((*t)->row(1)[0], Value::Bool(false));
}

TEST(DatabaseTest, TableNamesSorted) {
  Database db;
  (void)db.CreateTable("zz", Schema(std::vector<Column>{}));
  (void)db.CreateTable("aa", Schema(std::vector<Column>{}));
  EXPECT_EQ(db.TableNames(), (std::vector<std::string>{"aa", "zz"}));
}

}  // namespace
}  // namespace hermes::relational
