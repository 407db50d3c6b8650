"""Reference implementations the tests hold the product code against."""
