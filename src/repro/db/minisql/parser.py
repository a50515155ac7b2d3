"""Recursive-descent parser for the MiniSQL dialect.

Grammar coverage (everything PerfDMF's schema and query layer emits, plus
enough generality for user analysis queries):

* ``CREATE TABLE`` with column constraints, table-level PRIMARY KEY /
  UNIQUE / FOREIGN KEY, ``IF NOT EXISTS``
* ``DROP TABLE [IF EXISTS]``, ``CREATE [UNIQUE] INDEX``, ``DROP INDEX``
* ``ALTER TABLE .. ADD COLUMN`` / ``RENAME TO``
* ``INSERT INTO .. VALUES (..), (..)`` and ``INSERT INTO .. SELECT``
* ``UPDATE .. SET .. WHERE``, ``DELETE FROM .. WHERE``
* ``SELECT`` with DISTINCT, expressions + aliases, multi-way INNER /
  LEFT [OUTER] / CROSS JOIN, WHERE, GROUP BY, HAVING, ORDER BY,
  LIMIT/OFFSET, and UNION [ALL] / EXCEPT / INTERSECT compounds
* ``BEGIN`` / ``COMMIT`` / ``ROLLBACK``, ``PRAGMA name(arg)``
* ``?`` placeholders anywhere an expression is allowed

Expression grammar follows standard SQL precedence:
``OR`` < ``AND`` < ``NOT`` < comparison/IS/IN/LIKE/BETWEEN <
additive < multiplicative < unary < postfix (function call) < primary.
"""

from __future__ import annotations

from typing import Optional

from .ast_nodes import (
    AlterTableAddColumn, AlterTableRename, Between, BeginTransaction,
    BinaryOp, CaseExpr, CastExpr, ColumnDef, ColumnRef, CommitTransaction,
    CreateIndex, CreateTable, Delete, DropIndex, DropTable, Expression,
    ForeignKeySpec, FunctionCall, InList, Insert, IsNull, Join, Like,
    Literal, OrderItem, Placeholder, Pragma, RollbackTransaction, Select,
    SelectItem, Star, Statement, Subquery, TableRef, UnaryOp, Update,
)
from .errors import SQLSyntaxError
from .lexer import tokenize
from .tokens import Token, TokenType
from .types import canonical_type

_COMPARISON_OPS = {"=", "<>", "!=", "<", ">", "<=", ">="}
_TYPE_KEYWORDS = {
    "INTEGER", "INT", "BIGINT", "SMALLINT", "REAL", "DOUBLE", "FLOAT",
    "TEXT", "VARCHAR", "CHAR", "BOOLEAN", "BLOB", "NUMERIC", "DECIMAL",
}
_AGGREGATE_KEYWORDS = {"COUNT", "SUM", "AVG", "MIN", "MAX"}


def parse(sql: str) -> list[Statement]:
    """Parse ``sql`` (possibly several ``;``-separated statements)."""
    return Parser(sql).parse_script()


def parse_one(sql: str) -> Statement:
    """Parse exactly one statement; raise if there are zero or several."""
    statements = parse(sql)
    if len(statements) != 1:
        raise SQLSyntaxError(
            f"expected exactly one statement, found {len(statements)}"
        )
    return statements[0]


class Parser:
    """Stateful single-pass parser over a token list."""

    def __init__(self, sql: str):
        self.sql = sql
        self.tokens = tokenize(sql)
        self.pos = 0
        self.placeholder_count = 0

    # -- token plumbing ----------------------------------------------------

    @property
    def current(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        token = self.tokens[self.pos]
        if token.type is not TokenType.EOF:
            self.pos += 1
        return token

    def check_keyword(self, *keywords: str) -> bool:
        return self.current.type is TokenType.KEYWORD and self.current.value in keywords

    def accept_keyword(self, *keywords: str) -> Optional[str]:
        if self.check_keyword(*keywords):
            return self.advance().value
        return None

    def expect_keyword(self, keyword: str) -> None:
        if not self.accept_keyword(keyword):
            self.error(f"expected {keyword}")

    def accept_punct(self, value: str) -> bool:
        if self.current.matches(TokenType.PUNCTUATION, value):
            self.advance()
            return True
        return False

    def expect_punct(self, value: str) -> None:
        if not self.accept_punct(value):
            self.error(f"expected {value!r}")

    def accept_operator(self, value: str) -> bool:
        if self.current.matches(TokenType.OPERATOR, value):
            self.advance()
            return True
        return False

    def expect_identifier(self, what: str = "identifier") -> str:
        token = self.current
        # Unreserved-ish keywords may appear as identifiers (e.g. a column
        # named "key" or an aggregate name used as a table alias is NOT
        # allowed, but type keywords frequently name columns in the wild).
        if token.type is TokenType.IDENTIFIER:
            self.advance()
            return token.value
        if token.type is TokenType.KEYWORD and token.value in _TYPE_KEYWORDS | {
            "KEY", "INDEX", "COLUMN", "DEFAULT", "PRAGMA", "ALL", "COUNT",
            "SUM", "AVG", "MIN", "MAX",
        }:
            self.advance()
            return token.value.lower()
        self.error(f"expected {what}")
        raise AssertionError  # unreachable

    def error(self, message: str) -> None:
        raise SQLSyntaxError(message, self.current.position, self.sql)

    # -- entry points -------------------------------------------------------

    def parse_script(self) -> list[Statement]:
        statements: list[Statement] = []
        while self.current.type is not TokenType.EOF:
            if self.accept_punct(";"):
                continue
            statements.append(self.parse_statement())
            if not self.accept_punct(";") and self.current.type is not TokenType.EOF:
                self.error("expected ';' between statements")
        return statements

    def parse_statement(self) -> Statement:
        token = self.current
        if token.type is not TokenType.KEYWORD:
            self.error("expected a statement keyword")
        keyword = token.value
        if keyword == "SELECT":
            return self.parse_select()
        if keyword == "INSERT":
            return self.parse_insert()
        if keyword == "UPDATE":
            return self.parse_update()
        if keyword == "DELETE":
            return self.parse_delete()
        if keyword == "CREATE":
            return self.parse_create()
        if keyword == "DROP":
            return self.parse_drop()
        if keyword == "ALTER":
            return self.parse_alter()
        if keyword == "BEGIN":
            self.advance()
            self.accept_keyword("TRANSACTION")
            return BeginTransaction()
        if keyword == "COMMIT":
            self.advance()
            self.accept_keyword("TRANSACTION")
            return CommitTransaction()
        if keyword == "ROLLBACK":
            self.advance()
            self.accept_keyword("TRANSACTION")
            return RollbackTransaction()
        if keyword == "PRAGMA":
            return self.parse_pragma()
        if keyword == "EXPLAIN":
            self.advance()
            from .ast_nodes import Explain

            analyze = False
            current = self.current
            if (
                current.type in (TokenType.IDENTIFIER, TokenType.KEYWORD)
                and current.value.upper() == "ANALYZE"
            ):
                self.advance()
                analyze = True
            return Explain(self.parse_statement(), analyze=analyze)
        self.error(f"unsupported statement {keyword}")
        raise AssertionError  # unreachable

    # -- DDL ------------------------------------------------------------------

    def parse_create(self) -> Statement:
        self.expect_keyword("CREATE")
        unique = bool(self.accept_keyword("UNIQUE"))
        if self.accept_keyword("TABLE"):
            if unique:
                self.error("UNIQUE is not valid before TABLE")
            return self.parse_create_table()
        if self.accept_keyword("INDEX"):
            return self.parse_create_index(unique)
        self.error("expected TABLE or INDEX after CREATE")
        raise AssertionError

    def parse_create_table(self) -> CreateTable:
        if_not_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("NOT")
            self.expect_keyword("EXISTS")
            if_not_exists = True
        name = self.expect_identifier("table name")
        self.expect_punct("(")
        columns: list[ColumnDef] = []
        primary_key: list[str] = []
        uniques: list[list[str]] = []
        foreign_keys: list[ForeignKeySpec] = []
        while True:
            if self.check_keyword("PRIMARY"):
                self.advance()
                self.expect_keyword("KEY")
                primary_key = self._parse_paren_name_list()
            elif self.check_keyword("UNIQUE"):
                self.advance()
                uniques.append(self._parse_paren_name_list())
            elif self.check_keyword("FOREIGN"):
                self.advance()
                self.expect_keyword("KEY")
                cols = self._parse_paren_name_list()
                self.expect_keyword("REFERENCES")
                ref_table = self.expect_identifier("referenced table")
                ref_cols = self._parse_paren_name_list()
                foreign_keys.append(ForeignKeySpec(cols, ref_table, ref_cols))
            elif self.check_keyword("CHECK"):
                # Accepted and ignored (documented limitation).
                self.advance()
                self._skip_parenthesized()
            else:
                columns.append(self.parse_column_def())
            if self.accept_punct(","):
                continue
            self.expect_punct(")")
            break
        return CreateTable(
            table=name,
            columns=columns,
            if_not_exists=if_not_exists,
            primary_key=primary_key,
            unique_constraints=uniques,
            foreign_keys=foreign_keys,
        )

    def parse_column_def(self) -> ColumnDef:
        name = self.expect_identifier("column name")
        type_token = self.current
        if type_token.type is TokenType.KEYWORD and type_token.value in _TYPE_KEYWORDS:
            self.advance()
            type_text = type_token.value
            if type_text == "DOUBLE" and self.accept_keyword("PRECISION"):
                type_text = "DOUBLE PRECISION"
            # optional (n) / (n, m) length specifier
            if self.accept_punct("("):
                while not self.accept_punct(")"):
                    self.advance()
        elif type_token.type is TokenType.IDENTIFIER:
            # Unknown types fall back to NUMERIC affinity like sqlite.
            self.advance()
            type_text = "NUMERIC"
        else:
            type_text = "NUMERIC"
        column = ColumnDef(name=name, type_name=canonical_type(type_text))
        while True:
            if self.accept_keyword("NOT"):
                self.expect_keyword("NULL")
                column.not_null = True
            elif self.accept_keyword("NULL"):
                pass  # explicit nullable, the default
            elif self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                column.primary_key = True
                column.not_null = True
            elif self.accept_keyword("AUTOINCREMENT"):
                column.autoincrement = True
            elif self.accept_keyword("UNIQUE"):
                column.unique = True
            elif self.accept_keyword("DEFAULT"):
                # A signed number, as sqlite allows: dumps write a
                # negative or -Inf default as DEFAULT -1 / DEFAULT -1e999.
                column.default = self._parse_unary()
            elif self.accept_keyword("REFERENCES"):
                ref_table = self.expect_identifier("referenced table")
                ref_column = "id"
                if self.accept_punct("("):
                    ref_column = self.expect_identifier("referenced column")
                    self.expect_punct(")")
                column.references = (ref_table, ref_column)
            elif self.accept_keyword("CHECK"):
                self._skip_parenthesized()
            else:
                break
        return column

    def _parse_paren_name_list(self) -> list[str]:
        self.expect_punct("(")
        names = [self.expect_identifier("column name")]
        while self.accept_punct(","):
            names.append(self.expect_identifier("column name"))
        self.expect_punct(")")
        return names

    def _skip_parenthesized(self) -> None:
        self.expect_punct("(")
        depth = 1
        while depth:
            token = self.advance()
            if token.type is TokenType.EOF:
                self.error("unterminated parenthesis")
            if token.matches(TokenType.PUNCTUATION, "("):
                depth += 1
            elif token.matches(TokenType.PUNCTUATION, ")"):
                depth -= 1

    def parse_create_index(self, unique: bool) -> CreateIndex:
        if_not_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("NOT")
            self.expect_keyword("EXISTS")
            if_not_exists = True
        name = self.expect_identifier("index name")
        self.expect_keyword("ON")
        table = self.expect_identifier("table name")
        columns = self._parse_paren_name_list()
        using = "hash"
        if self.accept_keyword("USING"):
            method = self.expect_identifier("index method").upper()
            if method not in ("HASH", "BTREE"):
                self.error("expected HASH or BTREE after USING")
            using = method.lower()
        return CreateIndex(
            name=name, table=table, columns=columns,
            unique=unique, if_not_exists=if_not_exists, using=using,
        )

    def parse_drop(self) -> Statement:
        self.expect_keyword("DROP")
        if self.accept_keyword("TABLE"):
            if_exists = False
            if self.accept_keyword("IF"):
                self.expect_keyword("EXISTS")
                if_exists = True
            return DropTable(self.expect_identifier("table name"), if_exists)
        if self.accept_keyword("INDEX"):
            if_exists = False
            if self.accept_keyword("IF"):
                self.expect_keyword("EXISTS")
                if_exists = True
            return DropIndex(self.expect_identifier("index name"), if_exists)
        self.error("expected TABLE or INDEX after DROP")
        raise AssertionError

    def parse_alter(self) -> Statement:
        self.expect_keyword("ALTER")
        self.expect_keyword("TABLE")
        table = self.expect_identifier("table name")
        if self.accept_keyword("ADD"):
            self.accept_keyword("COLUMN")
            return AlterTableAddColumn(table, self.parse_column_def())
        if self.accept_keyword("RENAME"):
            self.expect_keyword("TO")
            return AlterTableRename(table, self.expect_identifier("new name"))
        self.error("expected ADD or RENAME after ALTER TABLE")
        raise AssertionError

    def parse_pragma(self) -> Pragma:
        self.expect_keyword("PRAGMA")
        name = self.expect_identifier("pragma name")
        argument = None
        if self.accept_punct("("):
            argument = self._parse_pragma_argument()
            # Multi-token form — PRAGMA columnar(metric on) — joins the
            # extra tokens with spaces; a lone token keeps its raw value
            # (PRAGMA wal_autocheckpoint(65536) must stay an int).
            extra = []
            while True:
                more = self._parse_pragma_argument()
                if more is None:
                    break
                extra.append(more)
            if extra:
                argument = " ".join(str(part) for part in [argument, *extra])
            self.expect_punct(")")
        elif self.accept_operator("="):
            # sqlite's assignment form: PRAGMA bulk_load = on
            argument = self._parse_pragma_argument()
        return Pragma(name=name.lower(), argument=argument)

    def _parse_pragma_argument(self):
        token = self.current
        if token.type in (TokenType.IDENTIFIER, TokenType.STRING, TokenType.NUMBER):
            self.advance()
            return token.value
        if token.type is TokenType.KEYWORD:
            self.advance()
            return token.value.lower()
        return None

    # -- DML ------------------------------------------------------------------

    def parse_insert(self) -> Insert:
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_identifier("table name")
        columns: list[str] = []
        if self.current.matches(TokenType.PUNCTUATION, "("):
            columns = self._parse_paren_name_list()
        if self.check_keyword("SELECT"):
            return Insert(table=table, columns=columns, select=self.parse_select())
        self.expect_keyword("VALUES")
        rows: list[list[Expression]] = []
        while True:
            self.expect_punct("(")
            row = [self.parse_expression()]
            while self.accept_punct(","):
                row.append(self.parse_expression())
            self.expect_punct(")")
            rows.append(row)
            if not self.accept_punct(","):
                break
        return Insert(table=table, columns=columns, rows=rows)

    def parse_update(self) -> Update:
        self.expect_keyword("UPDATE")
        table = self.expect_identifier("table name")
        self.expect_keyword("SET")
        assignments: list[tuple[str, Expression]] = []
        while True:
            column = self.expect_identifier("column name")
            if not self.accept_operator("="):
                self.error("expected '=' in SET clause")
            assignments.append((column, self.parse_expression()))
            if not self.accept_punct(","):
                break
        where = self.parse_expression() if self.accept_keyword("WHERE") else None
        return Update(table=table, assignments=assignments, where=where)

    def parse_delete(self) -> Delete:
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_identifier("table name")
        where = self.parse_expression() if self.accept_keyword("WHERE") else None
        return Delete(table=table, where=where)

    # -- SELECT -----------------------------------------------------------------

    def parse_select(self) -> Select:
        select = self._parse_select_core()
        while self.check_keyword("UNION", "EXCEPT", "INTERSECT"):
            op = self.advance().value
            if op == "UNION" and self.accept_keyword("ALL"):
                op = "UNION ALL"
            rhs = self._parse_select_core()
            # A trailing ORDER BY / LIMIT lexically binds to the last core
            # select but semantically applies to the whole compound; move it
            # to the head select where the executor looks for it.
            if rhs.order_by and not select.order_by:
                select.order_by, rhs.order_by = rhs.order_by, []
            if rhs.limit is not None and select.limit is None:
                select.limit, rhs.limit = rhs.limit, None
                select.offset, rhs.offset = rhs.offset, None
            # Chain compounds left-associatively.
            node = select
            while node.compound is not None:
                node = node.compound[1]
            node.compound = (op, rhs)
        # ORDER BY / LIMIT after a compound apply to the whole compound; we
        # attach them to the head select and the executor handles it.
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            select.order_by = self._parse_order_items()
        if self.accept_keyword("LIMIT"):
            select.limit = self.parse_expression()
            if self.accept_keyword("OFFSET"):
                select.offset = self.parse_expression()
        return select

    def _parse_select_core(self) -> Select:
        self.expect_keyword("SELECT")
        select = Select()
        if self.accept_keyword("DISTINCT"):
            select.distinct = True
        else:
            self.accept_keyword("ALL")
        select.items.append(self._parse_select_item())
        while self.accept_punct(","):
            select.items.append(self._parse_select_item())
        if self.accept_keyword("FROM"):
            select.table = self._parse_table_ref()
            while True:
                join = self._parse_join_opt()
                if join is None:
                    break
                select.joins.append(join)
        if self.accept_keyword("WHERE"):
            select.where = self.parse_expression()
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            select.group_by.append(self.parse_expression())
            while self.accept_punct(","):
                select.group_by.append(self.parse_expression())
        if self.accept_keyword("HAVING"):
            select.having = self.parse_expression()
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            select.order_by = self._parse_order_items()
        if self.accept_keyword("LIMIT"):
            select.limit = self.parse_expression()
            if self.accept_keyword("OFFSET"):
                select.offset = self.parse_expression()
        return select

    def _parse_order_items(self) -> list[OrderItem]:
        items = [self._parse_order_item()]
        while self.accept_punct(","):
            items.append(self._parse_order_item())
        return items

    def _parse_order_item(self) -> OrderItem:
        expr = self.parse_expression()
        descending = False
        if self.accept_keyword("DESC"):
            descending = True
        else:
            self.accept_keyword("ASC")
        return OrderItem(expr=expr, descending=descending)

    def _parse_select_item(self) -> SelectItem:
        if self.current.matches(TokenType.OPERATOR, "*"):
            self.advance()
            return SelectItem(expr=Star())
        # table.* form
        if (
            self.current.type is TokenType.IDENTIFIER
            and self.tokens[self.pos + 1].matches(TokenType.PUNCTUATION, ".")
            and self.tokens[self.pos + 2].matches(TokenType.OPERATOR, "*")
        ):
            table = self.advance().value
            self.advance()  # '.'
            self.advance()  # '*'
            return SelectItem(expr=Star(table=table))
        expr = self.parse_expression()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_identifier("alias")
        elif self.current.type is TokenType.IDENTIFIER:
            alias = self.advance().value
        return SelectItem(expr=expr, alias=alias)

    def _parse_table_ref(self) -> TableRef:
        name = self.expect_identifier("table name")
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_identifier("alias")
        elif self.current.type is TokenType.IDENTIFIER:
            alias = self.advance().value
        return TableRef(name=name, alias=alias)

    def _parse_join_opt(self) -> Optional[Join]:
        if self.accept_punct(","):
            return Join(kind="CROSS", table=self._parse_table_ref())
        kind = None
        if self.accept_keyword("INNER"):
            kind = "INNER"
            self.expect_keyword("JOIN")
        elif self.accept_keyword("LEFT"):
            self.accept_keyword("OUTER")
            kind = "LEFT"
            self.expect_keyword("JOIN")
        elif self.accept_keyword("CROSS"):
            kind = "CROSS"
            self.expect_keyword("JOIN")
        elif self.accept_keyword("JOIN"):
            kind = "INNER"
        elif self.check_keyword("RIGHT"):
            self.error("RIGHT JOIN is not supported; rewrite as LEFT JOIN")
        if kind is None:
            return None
        table = self._parse_table_ref()
        condition = None
        if kind != "CROSS":
            self.expect_keyword("ON")
            condition = self.parse_expression()
        return Join(kind=kind, table=table, condition=condition)

    # -- expressions --------------------------------------------------------------

    def parse_expression(self) -> Expression:
        return self._parse_or()

    def _parse_or(self) -> Expression:
        left = self._parse_and()
        while self.accept_keyword("OR"):
            left = BinaryOp("OR", left, self._parse_and())
        return left

    def _parse_and(self) -> Expression:
        left = self._parse_not()
        while self.accept_keyword("AND"):
            left = BinaryOp("AND", left, self._parse_not())
        return left

    def _parse_not(self) -> Expression:
        if self.accept_keyword("NOT"):
            return UnaryOp("NOT", self._parse_not())
        return self._parse_comparison()

    def _parse_comparison(self) -> Expression:
        left = self._parse_additive()
        while True:
            token = self.current
            if token.type is TokenType.OPERATOR and token.value in _COMPARISON_OPS:
                self.advance()
                op = "<>" if token.value == "!=" else token.value
                left = BinaryOp(op, left, self._parse_additive())
                continue
            negated = False
            save = self.pos
            if self.accept_keyword("NOT"):
                negated = True
            if self.accept_keyword("IS"):
                is_not = bool(self.accept_keyword("NOT")) or negated
                self.expect_keyword("NULL")
                left = IsNull(left, negated=is_not)
                continue
            if self.accept_keyword("IN"):
                self.expect_punct("(")
                if self.check_keyword("SELECT"):
                    items: list[Expression] = [Subquery(self.parse_select())]
                else:
                    items = [self.parse_expression()]
                    while self.accept_punct(","):
                        items.append(self.parse_expression())
                self.expect_punct(")")
                left = InList(left, items, negated=negated)
                continue
            if self.accept_keyword("LIKE"):
                left = Like(left, self._parse_additive(), negated=negated)
                continue
            if self.accept_keyword("BETWEEN"):
                low = self._parse_additive()
                self.expect_keyword("AND")
                high = self._parse_additive()
                left = Between(left, low, high, negated=negated)
                continue
            if negated:
                self.pos = save  # plain NOT handled one level up
            break
        return left

    def _parse_additive(self) -> Expression:
        left = self._parse_multiplicative()
        while True:
            if self.accept_operator("+"):
                left = BinaryOp("+", left, self._parse_multiplicative())
            elif self.accept_operator("-"):
                left = BinaryOp("-", left, self._parse_multiplicative())
            elif self.accept_operator("||"):
                left = BinaryOp("||", left, self._parse_multiplicative())
            else:
                return left

    def _parse_multiplicative(self) -> Expression:
        left = self._parse_unary()
        while True:
            if self.accept_operator("*"):
                left = BinaryOp("*", left, self._parse_unary())
            elif self.accept_operator("/"):
                left = BinaryOp("/", left, self._parse_unary())
            elif self.accept_operator("%"):
                left = BinaryOp("%", left, self._parse_unary())
            else:
                return left

    def _parse_unary(self) -> Expression:
        if self.accept_operator("-"):
            return UnaryOp("-", self._parse_unary())
        if self.accept_operator("+"):
            return self._parse_unary()
        return self._parse_primary_postfix()

    def _parse_primary_postfix(self) -> Expression:
        return self.parse_primary()

    def parse_primary(self) -> Expression:
        token = self.current
        if token.type is TokenType.NUMBER:
            self.advance()
            text = token.value
            if "." in text or "e" in text or "E" in text:
                return Literal(float(text))
            return Literal(int(text))
        if token.type is TokenType.STRING:
            self.advance()
            return Literal(token.value)
        if token.type is TokenType.PLACEHOLDER:
            self.advance()
            index = self.placeholder_count
            self.placeholder_count += 1
            return Placeholder(index)
        if token.type is TokenType.KEYWORD:
            if token.value == "NULL":
                self.advance()
                return Literal(None)
            if token.value == "TRUE":
                self.advance()
                return Literal(1)
            if token.value == "FALSE":
                self.advance()
                return Literal(0)
            if token.value == "CASE":
                return self._parse_case()
            if token.value == "CAST":
                return self._parse_cast()
            if token.value in _AGGREGATE_KEYWORDS:
                # aggregate keyword used as function name
                if self.tokens[self.pos + 1].matches(TokenType.PUNCTUATION, "("):
                    self.advance()
                    return self._parse_function_call(token.value)
            # Soft keywords usable as bare column names (e.g. a column
            # called "key" or "index").
            if token.value in _TYPE_KEYWORDS | {
                "KEY", "INDEX", "COLUMN", "DEFAULT", "ALL",
            }:
                self.advance()
                if self.current.matches(TokenType.PUNCTUATION, "."):
                    self.advance()
                    column = self.expect_identifier("column name")
                    return ColumnRef(name=column, table=token.value.lower())
                return ColumnRef(name=token.value.lower())
        if token.type is TokenType.IDENTIFIER:
            self.advance()
            # function call?
            if self.current.matches(TokenType.PUNCTUATION, "("):
                return self._parse_function_call(token.value.upper())
            # qualified column?
            if self.current.matches(TokenType.PUNCTUATION, "."):
                self.advance()
                column = self.expect_identifier("column name")
                return ColumnRef(name=column, table=token.value)
            return ColumnRef(name=token.value)
        if token.matches(TokenType.PUNCTUATION, "("):
            self.advance()
            expr = self.parse_expression()
            self.expect_punct(")")
            return expr
        self.error("expected an expression")
        raise AssertionError

    def _parse_function_call(self, name: str) -> FunctionCall:
        self.expect_punct("(")
        distinct = bool(self.accept_keyword("DISTINCT"))
        args: list[Expression] = []
        if self.current.matches(TokenType.OPERATOR, "*"):
            self.advance()
            args.append(Star())
        elif not self.current.matches(TokenType.PUNCTUATION, ")"):
            args.append(self.parse_expression())
            while self.accept_punct(","):
                args.append(self.parse_expression())
        self.expect_punct(")")
        return FunctionCall(name=name, args=args, distinct=distinct)

    def _parse_case(self) -> CaseExpr:
        self.expect_keyword("CASE")
        operand = None
        if not self.check_keyword("WHEN"):
            operand = self.parse_expression()
        whens: list[tuple[Expression, Expression]] = []
        while self.accept_keyword("WHEN"):
            condition = self.parse_expression()
            self.expect_keyword("THEN")
            whens.append((condition, self.parse_expression()))
        if not whens:
            self.error("CASE requires at least one WHEN")
        default = self.parse_expression() if self.accept_keyword("ELSE") else None
        self.expect_keyword("END")
        return CaseExpr(operand=operand, whens=whens, default=default)

    def _parse_cast(self) -> CastExpr:
        self.expect_keyword("CAST")
        self.expect_punct("(")
        operand = self.parse_expression()
        self.expect_keyword("AS")
        token = self.current
        if token.type is TokenType.KEYWORD and token.value in _TYPE_KEYWORDS:
            self.advance()
            type_text = token.value
            if type_text == "DOUBLE":
                self.accept_keyword("PRECISION")
            if self.accept_punct("("):
                while not self.accept_punct(")"):
                    self.advance()
        else:
            type_text = self.expect_identifier("type name")
        self.expect_punct(")")
        return CastExpr(operand=operand, target_type=canonical_type(type_text))
